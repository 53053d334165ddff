// batch_match: the emdbg_match binary run back to back with default flags
// (serial, the tool's own engine choice), every job cold. One op = one job
// from exec to exit with its matches CSV written.

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/core/memo_matcher.h"
#include "src/core/pair_context.h"
#include "src/core/rule_parser.h"
#include "src/data/candidate_io.h"
#include "src/util/string_util.h"

namespace perfbench {

using namespace emdbg;

namespace {

// Set-up samples taken before each job; setup_s is their median.
constexpr int kSetupsPerJob = 1;

/// Work counters from the tool's own stats line
/// "N matches in X ms (computations=.. memo_hits=.. predicate_evals=..
/// rule_evals=.. elapsed=..)".
struct JobStats {
  size_t matches = 0;
  size_t computations = 0;
  size_t memo_hits = 0;
  size_t predicate_evals = 0;
  size_t rule_evals = 0;
  bool block_engine = false;
};

bool ParseJobStats(const std::string& out, JobStats* s) {
  s->block_engine = out.find("auto engine: block") != std::string::npos;
  const size_t at = out.find(" matches in ");
  if (at == std::string::npos) return false;
  const size_t line = out.rfind('\n', at);
  const size_t from = line == std::string::npos ? 0 : line + 1;
  unsigned long long m = 0, c = 0, h = 0, p = 0, r = 0;
  if (std::sscanf(out.c_str() + from,
                  "%llu matches in %*f ms (computations=%llu memo_hits=%llu "
                  "predicate_evals=%llu rule_evals=%llu",
                  &m, &c, &h, &p, &r) != 5) {
    return false;
  }
  *s = JobStats{m, c, h, p, r, s->block_engine};
  return true;
}

/// The inputs as the tool holds them once it has set up.
struct Loaded {
  Corpus corpus;
  FeatureCatalog catalog;
  MatchingFunction fn;
};

/// The tool's set-up, in its own call order: load both tables, the rules
/// and the pairs, and build the pair context (its per-record cache slots;
/// the tool tokenizes lazily, inside its cost model, so no prewarm).
Status Load(const InputPaths& paths, Loaded* out) {
  if (Status s = LoadCorpus(paths, nullptr, &out->corpus); !s.ok()) return s;
  out->catalog =
      FeatureCatalog(out->corpus.a.schema(), out->corpus.b.schema());
  Result<MatchingFunction> fn = LoadRulesFile(paths.rules, out->catalog);
  if (!fn.ok()) return fn.status();
  out->fn = std::move(*fn);
  const PairContext ctx(out->corpus.a, out->corpus.b, out->catalog);
  return Status::Ok();
}

}  // namespace

int RunBatchMatch(const Args& args) {
  Report report(args);
  Tracer tracer(args.trace);
  const InputPaths paths(args.dir);

  Loaded in;
  if (const Status s = Load(paths, &in); !s.ok()) {
    report.Fail("load failed: " + s.ToString());
    return report.Finish(1, 1);
  }
  const Corpus& corpus = in.corpus;
  const FeatureCatalog& catalog = in.catalog;
  const MatchingFunction& fn = in.fn;

  // The oracle: the serial Alg. 4 matcher (MemoMatcher) on the same inputs,
  // rules as written. Its match set must be a strict, non-empty subset of
  // the pairs, or comparing against it could not catch a dropped or a
  // false match.
  std::vector<PairId> expected;
  Bitmap oracle(corpus.pairs.size());
  {
    PairContext ctx(corpus.a, corpus.b, catalog);
    oracle = MemoMatcher().Run(fn, corpus.pairs, ctx).matches;
    Bitmap matches = oracle;
    const size_t n = matches.Count();
    if (n == 0 || n == corpus.pairs.size()) {
      report.Fail(StrFormat("the oracle matches %zu of %zu pairs; the rule "
                            "set must match some pairs but not all",
                            n, corpus.pairs.size()));
      return report.Finish(1, 1);
    }
    if (args.corrupt_expected) {
      // A false match: the first pair the oracle rejects.
      size_t i = 0;
      while (matches.Get(i)) ++i;
      matches.Assign(i, true);
    }
    for (size_t i = 0; i < corpus.pairs.size(); ++i) {
      if (matches.Get(i)) expected.push_back(corpus.pairs.pair(i));
    }
  }

  // Timed phase: one job after another until the time is up, each after
  // kSetupsPerJob set-up samples (about 1.5 % of the loop's time). Each job
  // writes its own output file; outputs are checked after the loop.
  const std::string out_dir = args.dir + "/out";
  MakeDirs(out_dir);
  std::vector<double> setups, lat, rss;
  std::vector<JobStats> stats;
  std::vector<std::string> outputs;
  std::vector<double> traced_ms, untraced_ms;
  size_t failed = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    // Set-up samples, spread over the run so that their median does not
    // rest on one moment of the host (noise fact 1), each on fresh objects.
    for (int k = 0; k < kSetupsPerJob; ++k) {
      Loaded fresh;
      const int64_t t0 = NowNs();
      const Status s = Load(paths, &fresh);
      setups.push_back((NowNs() - t0) / 1e9);
      if (!s.ok()) report.Fail("load failed: " + s.ToString());
    }
    const std::string out = StrFormat("%s/job_%zu.csv", out_dir.c_str(), i);
    const bool traced = args.trace && i % 2 == 1;
    ChildResult job;
    {
      ScopedSpan span(traced ? &tracer : nullptr, "batch.job", i);
      job = RunChild({args.bin, "--a=" + paths.a, "--b=" + paths.b,
                      "--rules=" + paths.rules, "--pairs=" + paths.pairs,
                      "--out=" + out},
                     args.dir + "/job.err");
    }
    JobStats js;
    if (job.exit_code != 0 || !ParseJobStats(job.out, &js)) {
      ++failed;
      report.Fail(StrFormat("job %zu failed (exit %d)", i, job.exit_code));
      break;
    }
    lat.push_back(job.wall_ms);
    rss.push_back(job.max_rss_mb);
    stats.push_back(js);
    outputs.push_back(out);
    (traced ? traced_ms : untraced_ms).push_back(job.wall_ms);
  }
  const double wall_s = (NowNs() - start) / 1e9;

  for (size_t i = 0; i < outputs.size(); ++i) {
    Result<LoadedCandidates> got = LoadCandidatesCsv(outputs[i]);
    if (!got.ok() || got->candidates.pairs() != expected) {
      report.Fail(StrFormat("job %zu output differs from the serial "
                            "MemoMatcher oracle",
                            i));
      break;
    }
  }
  RemoveTree(out_dir);

  // Work attribution: the tool's own counters. Distinct counter tuples
  // across jobs mean the timing-dependent plan changed between jobs.
  std::set<std::tuple<size_t, size_t, size_t, size_t>> plans;
  std::vector<double> comps, hits, preds, rule_evals;
  for (const JobStats& s : stats) {
    plans.insert({s.computations, s.memo_hits, s.predicate_evals,
                  s.rule_evals});
    comps.push_back(static_cast<double>(s.computations));
    hits.push_back(static_cast<double>(s.memo_hits));
    preds.push_back(static_cast<double>(s.predicate_evals));
    rule_evals.push_back(static_cast<double>(s.rule_evals));
  }
  report.Attribution("jobs.feature_computations.median", Median(comps));
  report.Attribution("jobs.memo_hits.median", Median(hits));
  report.Attribution("jobs.predicate_evaluations.median", Median(preds));
  report.Attribution("jobs.rule_evaluations.median", Median(rule_evals));
  if (!rule_evals.empty()) {
    report.Attribution("jobs.rule_evaluations.min",
                       *std::min_element(rule_evals.begin(), rule_evals.end()));
    report.Attribution("jobs.rule_evaluations.max",
                       *std::max_element(rule_evals.begin(), rule_evals.end()));
  }
  report.Attribution("distinct_work_tuples_in_run",
                     static_cast<double>(plans.size()));
  report.Attribution("engine", !stats.empty() && stats[0].block_engine
                                   ? "block"
                                   : "per_pair");
  report.Attribution("matches", static_cast<double>(oracle.Count()));

  report.Provenance("rows_a", corpus.a.num_rows());
  report.Provenance("rows_b", corpus.b.num_rows());
  report.Provenance("pairs", corpus.pairs.size());
  report.Provenance("rules", fn.num_rules());
  report.Provenance("memo_mb", corpus.pairs.size() * catalog.size() *
                                   sizeof(float) / 1048576.0);
  report.Provenance("client_threads", 1);
  report.Provenance("worker_threads", 1);
  report.Provenance("flush_policy",
                    "no journal; each job writes its matches CSV");
  report.Provenance("ops", static_cast<double>(lat.size()));

  if (!args.trace) {
    report.EndToEnd(setups, lat, wall_s, Median(rss));
  } else {
    // The replay reproduces the binary's call sequence in-process; its
    // match set must equal the jobs' output (= the oracle).
    ReplayStages(args, &oracle, tracer, report);
    report.Extra("batch.job_p50_ms", Median(lat), "ms");
    report.Extra("batch.job_rss_mb", Median(rss), "MB");
    report.TraceSummary(tracer, traced_ms, untraced_ms);
  }
  return report.Finish(lat.size(), failed);
}

}  // namespace perfbench
