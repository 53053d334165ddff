// edit_session: one analyst replaying a seeded edit script against an
// in-process DebugSession (default options: incremental, greedy-reduction
// ordering, serial). One op = one edit call until it returns with the
// match bitmap updated.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <tuple>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/core/debug_session.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_parser.h"
#include "src/util/string_util.h"

namespace perfbench {

using namespace emdbg;

namespace {

constexpr int kSetups = 5;            // set-ups per run; setup_s: median
constexpr size_t kCheckReplicas = 2;  // replicas replaying the first kPrefix
constexpr size_t kPrefix = 1000;      // edits, for the cross-process check
constexpr size_t kTraceWindow = 32;
constexpr double kStep = 0.02;    // tighten / relax threshold step

enum EditType {
  kAddRule,
  kRemoveRule,
  kAddPred,
  kRemovePred,
  kTighten,
  kRelax,
  kUndo,
  kNumEditTypes
};
const char* const kEditNames[kNumEditTypes] = {
    "add_rule", "remove_rule", "add_pred", "remove_pred",
    "tighten",  "relax",       "undo"};
const char* const kEditSpans[kNumEditTypes] = {
    "core.edit.add_rule", "core.edit.remove_rule", "core.edit.add_pred",
    "core.edit.remove_pred", "core.edit.tighten", "core.edit.relax",
    "core.edit.undo"};

struct Edit {
  EditType type = kTighten;
  RuleId rid = 0;
  PredicateId pid = 0;
  double threshold = 0;
  Rule rule;
  Predicate pred;
};

/// Seeded stream of analyst edits (Algs. 7-10 plus undo): every cycle holds
/// one edit of each type in a seeded order. Every session must replay the
/// same logical script whatever evaluation order its cost model chose, so
/// nothing is picked by position: rules by id (assigned in edit order), and
/// predicates by (feature, op, threshold) — a rule added after the first
/// run numbers its predicates in the order its cost model put them.
class EditScript {
 public:
  EditScript(uint64_t seed, const MatchingFunction& pool)
      : rng_(seed), pool_(pool) {}

  Edit Next(const MatchingFunction& fn) {
    if (cycle_.empty()) {
      for (int t = 0; t < kNumEditTypes; ++t) {
        cycle_.push_back(static_cast<EditType>(t));
      }
      rng_.Shuffle(cycle_);
    }
    Edit e;
    e.type = cycle_.back();
    cycle_.pop_back();

    std::vector<const Rule*> rules;
    for (const Rule& r : fn.rules()) rules.push_back(&r);
    std::sort(rules.begin(), rules.end(),
              [](const Rule* x, const Rule* y) { return x->id() < y->id(); });
    auto pick = [&](auto keep) -> const Rule* {
      std::vector<const Rule*> ok;
      for (const Rule* r : rules) {
        if (keep(*r)) ok.push_back(r);
      }
      return ok.empty() ? nullptr : ok[rng_.Uniform(ok.size())];
    };

    if (e.type == kRemoveRule && rules.size() <= 20) e.type = kAddRule;
    if (e.type == kAddRule && rules.size() >= 40) e.type = kRemoveRule;
    if (e.type == kUndo && undo_depth_ == 0) e.type = kTighten;
    const Rule* target = nullptr;
    if (e.type == kRemovePred) {
      target = pick([](const Rule& r) { return r.size() >= 2; });
      if (target == nullptr) e.type = kAddPred;
    }
    if (e.type == kAddPred) {
      target = pick([](const Rule& r) { return r.size() < 9; });
      if (target != nullptr && !PickPoolPredicate(*target, &e.pred)) {
        target = nullptr;
      }
      if (target == nullptr) e.type = kTighten;
    }
    if (e.type == kRemoveRule || e.type == kTighten || e.type == kRelax) {
      target = pick([](const Rule& r) { return !r.empty(); });
    }

    switch (e.type) {
      case kAddRule:
        e.rule = pool_.rule(next_pool_++ % pool_.num_rules());
        e.rule.set_name(StrFormat("e%zu", added_++));
        break;
      case kRemoveRule:
      case kAddPred:
        e.rid = target->id();
        break;
      case kRemovePred:
      case kTighten:
      case kRelax: {
        std::vector<const Predicate*> preds;
        for (const Predicate& p : target->predicates()) preds.push_back(&p);
        std::sort(preds.begin(), preds.end(),
                  [](const Predicate* x, const Predicate* y) {
                    return std::tie(x->feature, x->op, x->threshold) <
                           std::tie(y->feature, y->op, y->threshold);
                  });
        const Predicate& p = *preds[rng_.Uniform(preds.size())];
        e.rid = target->id();
        e.pid = p.id;
        const double dir = (e.type == kTighten) == IsLowerBound(p.op) ? 1 : -1;
        e.threshold = std::clamp(p.threshold + dir * kStep, 0.0, 1.0);
        break;
      }
      case kUndo:
      case kNumEditTypes:
        break;
    }
    undo_depth_ = e.type == kUndo ? undo_depth_ - 1 : undo_depth_ + 1;
    return e;
  }

 private:
  /// A pool predicate on a feature `rule` does not use yet.
  bool PickPoolPredicate(const Rule& rule, Predicate* out) {
    const std::vector<FeatureId> used = rule.Features();
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Rule& src = pool_.rule(rng_.Uniform(pool_.num_rules()));
      const Predicate& p = src.predicate(rng_.Uniform(src.size()));
      if (std::find(used.begin(), used.end(), p.feature) == used.end()) {
        *out = p;
        return true;
      }
    }
    return false;
  }

  Rng rng_;
  const MatchingFunction& pool_;
  std::vector<EditType> cycle_;
  size_t next_pool_ = 0;
  size_t added_ = 0;
  size_t undo_depth_ = 0;
};

Status Apply(DebugSession& s, const Edit& e) {
  switch (e.type) {
    case kAddRule:
      return s.AddRule(e.rule).status();
    case kRemoveRule:
      return s.RemoveRule(e.rid);
    case kAddPred:
      return s.AddPredicate(e.rid, e.pred).status();
    case kRemovePred:
      return s.RemovePredicate(e.rid, e.pid);
    case kTighten:
    case kRelax:
      return s.SetThreshold(e.rid, e.pid, e.threshold);
    case kUndo:
      return s.Undo();
    case kNumEditTypes:
      break;
  }
  return Status::Ok();
}

struct Session {
  std::unique_ptr<DebugSession> session;
  MatchingFunction pool;
  std::string first_order;  ///< DSL in evaluation order after the first run
  size_t start_rules = 0;
  double setup_s = 0;
};

/// Program start to first op: CSV load, session construction and the cold
/// first Run(). The edit pool is loaded afterwards (untimed).
Status SetUp(const InputPaths& paths, Tracer* tracer, Session* out) {
  const int64_t t0 = NowNs();
  {
    ScopedSpan setup(tracer, "setup");
    Corpus corpus;
    Status s = LoadCorpus(paths, tracer, &corpus);
    if (!s.ok()) return s;
    {
      ScopedSpan c(tracer, "session.construct");
      out->session = std::make_unique<DebugSession>(
          std::move(corpus.a), std::move(corpus.b), std::move(corpus.pairs));
    }
    Result<MatchingFunction> fn = [&] {
      ScopedSpan r(tracer, "data.load.rules");
      return LoadRulesFile(paths.rules, out->session->catalog());
    }();
    if (!fn.ok()) return fn.status();
    out->start_rules = fn->num_rules();
    for (const Rule& rule : fn->rules()) {
      Result<RuleId> added = out->session->AddRule(rule);
      if (!added.ok()) return added.status();
    }
    ScopedSpan run(tracer, "session.first_run");
    out->session->Run();
  }
  out->setup_s = (NowNs() - t0) / 1e9;
  out->first_order =
      FunctionToDsl(out->session->function(), out->session->catalog());
  Result<MatchingFunction> pool =
      LoadRulesFile(paths.pool, out->session->catalog());
  if (!pool.ok()) return pool.status();
  out->pool = std::move(*pool);
  return Status::Ok();
}

/// Replica mode (`--replica=K`): a fresh process that sets up like the
/// timed session and replays the script's first K edits. Prints
/// "replica <setup_s> <order fingerprint>" and a line of the match count
/// after each edit.
int RunReplica(const Args& args) {
  Session r;
  if (const Status s = SetUp(InputPaths(args.dir), nullptr, &r); !s.ok()) {
    std::fprintf(stderr, "replica set-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  EditScript script(args.seed, r.pool);
  std::string counts = "counts";
  for (int64_t i = 0; i < args.replica; ++i) {
    const Edit e = script.Next(r.session->function());
    if (const Status st = Apply(*r.session, e); !st.ok()) {
      std::fprintf(stderr, "replica edit %lld (%s) failed: %s\n",
                   static_cast<long long>(i),
                   kEditNames[e.type], st.ToString().c_str());
      return 1;
    }
    r.session->Run();
    counts += StrFormat(" %zu", r.session->Run().Count());
  }
  std::printf("replica %.9f %016llx\n%s\n", r.setup_s,
              static_cast<unsigned long long>(Fnv1a(r.first_order)),
              counts.c_str());
  return 0;
}

struct Replica {
  double setup_s = 0;
  uint64_t order = 0;
  std::vector<size_t> counts;
};

/// Runs one replica process, replaying `edits` edits, to completion and
/// parses its output.
Status SpawnReplica(const Args& args, size_t edits, Replica* out) {
  const ChildResult child = RunChild(
      {SelfExe(), "edit_session", "--dir=" + args.dir,
       StrFormat("--seed=%llu", static_cast<unsigned long long>(args.seed)),
       StrFormat("--replica=%zu", edits)},
      args.dir + "/replica.err");
  unsigned long long order = 0;
  const size_t nl = child.out.find('\n');
  if (child.exit_code != 0 || nl == std::string::npos ||
      std::sscanf(child.out.c_str(), "replica %lf %llx", &out->setup_s,
                  &order) != 2) {
    std::ifstream err(args.dir + "/replica.err");
    const std::string why((std::istreambuf_iterator<char>(err)),
                          std::istreambuf_iterator<char>());
    return Status::Internal(
        StrFormat("replica exited %d: %s", child.exit_code, why.c_str()));
  }
  out->order = order;
  for (const std::string& w : SplitWhitespace(child.out.substr(nl + 1))) {
    int64_t n = 0;
    if (ParseInt64(w, &n)) out->counts.push_back(static_cast<size_t>(n));
  }
  if (out->counts.size() != edits) {
    return Status::Internal(StrFormat("replica printed %zu of %zu counts",
                                      out->counts.size(), edits));
  }
  return Status::Ok();
}

}  // namespace

int RunEditSession(const Args& args) {
  if (args.replica >= 0) return RunReplica(args);
  Report report(args);
  Tracer tracer(args.trace);
  const InputPaths paths(args.dir);

  // Set-ups, every one in a fresh process with nothing else live: first
  // kSetups - 1 replicas, one after another (the first kCheckReplicas also
  // replay the script's first kPrefix edits, for the cross-process check),
  // then this process's own, whose session the timed phase edits.
  std::vector<double> setups;
  std::vector<Replica> replicas(kSetups - 1);
  for (size_t k = 0; k < replicas.size(); ++k) {
    Replica& r = replicas[k];
    const size_t edits = k < kCheckReplicas ? kPrefix : 0;
    if (const Status s = SpawnReplica(args, edits, &r); !s.ok()) {
      report.Fail("replica: " + s.ToString());
      return report.Finish(1, 1);
    }
    setups.push_back(r.setup_s);
  }
  Session live;
  if (const Status s = SetUp(paths, &tracer, &live); !s.ok()) {
    report.Fail("set-up failed: " + s.ToString());
    return report.Finish(1, 1);
  }
  setups.push_back(live.setup_s);
  DebugSession& session = *live.session;
  const Bitmap first_run = session.Run();
  const MatchStats first_stats = session.last_stats();
  const std::string& order_dsl = live.first_order;

  // Timed phase: closed loop, one edit at a time. Traced runs alternate
  // windows of traced and untraced edits to measure the tracing overhead.
  EditScript script(args.seed, live.pool);
  std::vector<double> lat;
  std::vector<size_t> counts;
  std::vector<EditType> types;
  std::vector<double> type_ms[kNumEditTypes];
  MatchStats type_stats[kNumEditTypes];
  std::vector<double> traced_ms, untraced_ms;
  size_t failed = 0;
  const MatchStats before = session.total_stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const Edit e = script.Next(session.function());
    const bool traced = args.trace && (i / kTraceWindow) % 2 == 1;
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(traced ? &tracer : nullptr, kEditSpans[e.type], i);
      st = Apply(session, e);
      session.Run();
    }
    const double ms = (NowNs() - t0) / 1e6;
    if (!st.ok()) {
      ++failed;
      report.Fail(StrFormat("edit %zu (%s) failed: %s", i,
                            kEditNames[e.type], st.ToString().c_str()));
    }
    lat.push_back(ms);
    type_ms[e.type].push_back(ms);
    type_stats[e.type] += session.last_stats();
    (traced ? traced_ms : untraced_ms).push_back(ms);
    counts.push_back(session.Run().Count());
    types.push_back(e.type);
  }
  const double wall_s = (NowNs() - start) / 1e9;
  const double peak_mb = PeakRssMb();

  // Checks: the maintained bitmap equals a from-scratch run of the final
  // function (I1), and every replica saw the same match count after each
  // of the first kPrefix edits, although each process's cost model may
  // order the rules differently.
  MemoMatcher oracle;
  MatchResult scratch =
      oracle.Run(session.function(), session.candidates(), session.context());
  if (args.corrupt_expected) {
    scratch.matches.Assign(0, !scratch.matches.Get(0));
  }
  if (!(scratch.matches == session.Run())) {
    report.Fail("final bitmap differs from a from-scratch run (I1)");
  }
  const size_t checked = std::min(kPrefix, counts.size());
  std::set<uint64_t> orders = {Fnv1a(order_dsl)};
  for (size_t k = 0; k < replicas.size(); ++k) {
    const Replica& r = replicas[k];
    orders.insert(r.order);
    for (size_t i = 0; i < std::min(checked, r.counts.size()); ++i) {
      if (r.counts[i] != counts[i]) {
        report.Fail(StrFormat(
            "edit %zu (%s): match count differs between processes: timed "
            "session %zu, replica %zu %zu (orders %016llx, %016llx)",
            i, kEditNames[types[i]], counts[i], k, r.counts[i],
            static_cast<unsigned long long>(Fnv1a(order_dsl)),
            static_cast<unsigned long long>(r.order)));
        break;
      }
    }
  }
  std::string prefix_counts;
  for (size_t i = 0; i < checked; ++i) {
    prefix_counts += StrFormat("%zu ", counts[i]);
  }

  const MatchStats edits_total = [&] {
    MatchStats t = session.total_stats();
    t.feature_computations -= before.feature_computations;
    t.memo_hits -= before.memo_hits;
    t.predicate_evaluations -= before.predicate_evaluations;
    t.rule_evaluations -= before.rule_evaluations;
    return t;
  }();
  report.Attribution("first_run.feature_computations",
                     first_stats.feature_computations);
  report.Attribution("first_run.memo_hits", first_stats.memo_hits);
  report.Attribution("first_run.predicate_evaluations",
                     first_stats.predicate_evaluations);
  report.Attribution("first_run.rule_evaluations",
                     first_stats.rule_evaluations);
  report.Attribution("order_fingerprint",
                     StrFormat("%016llx", static_cast<unsigned long long>(
                                              Fnv1a(order_dsl))));
  report.Attribution("distinct_orders_in_run",
                     static_cast<double>(orders.size()));
  report.Attribution("edits.checked_prefix", static_cast<double>(checked));
  report.Attribution("edits.prefix_counts_hash",
                     StrFormat("%016llx", static_cast<unsigned long long>(
                                              Fnv1a(prefix_counts))));
  report.Attribution("edits.feature_computations",
                     edits_total.feature_computations);
  report.Attribution("edits.memo_hits", edits_total.memo_hits);
  report.Attribution("edits.predicate_evaluations",
                     edits_total.predicate_evaluations);
  report.Attribution("final_matches", static_cast<double>(counts.empty()
                                                              ? 0
                                                              : counts.back()));

  const DebugSession::MemoryFootprint fp = session.Footprint();
  report.Provenance("rows_a", session.context().table_a().num_rows());
  report.Provenance("rows_b", session.context().table_b().num_rows());
  report.Provenance("pairs", session.candidates().size());
  report.Provenance("rules_start", static_cast<double>(live.start_rules));
  report.Provenance("memo_mb", fp.memo_bytes / 1048576.0);
  report.Provenance("client_threads", 1);
  report.Provenance("worker_threads", 1);
  report.Provenance("flush_policy", "no journal; the session is not durable");
  report.Provenance("ops", static_cast<double>(lat.size()));

  if (!args.trace) {
    report.EndToEnd(setups, lat, wall_s, peak_mb);
  } else {
    ReplayStages(args, &first_run, tracer, report);
    for (int t = 0; t < kNumEditTypes; ++t) {
      const std::string base = std::string("core.edit.") + kEditNames[t];
      const double n = static_cast<double>(type_ms[t].size());
      report.Extra(base + ".p50_ms", Median(type_ms[t]), "ms");
      report.Extra(base + ".count", n, "count");
      report.Extra(base + ".feature_computations",
                   n == 0 ? 0 : type_stats[t].feature_computations / n,
                   "count/op");
      report.Extra(base + ".predicate_evaluations",
                   n == 0 ? 0 : type_stats[t].predicate_evaluations / n,
                   "count/op");
    }
    report.Extra("session.token_cache_mb",
                 fp.token_cache_bytes / 1048576.0, "MB");
    report.Extra("session.id_cache_mb", fp.id_cache_bytes / 1048576.0,
                 "MB");
    report.Extra("session.memo_mb", fp.memo_bytes / 1048576.0,
                 "MB");
    report.TraceSummary(tracer, traced_ms, untraced_ms);
  }
  return report.Finish(lat.size(), failed);
}

}  // namespace perfbench
