// Per-layer stage metrics shared by every workload's traced run.

#include <map>
#include <memory>
#include <set>

#include "perfbench/inputs.h"
#include "src/core/block_matcher.h"
#include "src/core/cost_model.h"
#include "src/core/memo.h"
#include "src/core/memo_matcher.h"
#include "src/core/ordering.h"
#include "src/core/pair_context.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/data/candidate_io.h"
#include "src/data/table_io.h"

namespace perfbench {

using namespace emdbg;

namespace {

constexpr int kReplays = 3;        // medians over this many replays
constexpr int kExtraOrderings = 5; // extra estimate+order repetitions
constexpr size_t kProbePairs = 2048;

/// Wall time of `f` inside a span named `name`, in ms.
template <typename F>
double Timed(Tracer& tracer, const char* name, uint64_t op, F&& f) {
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(&tracer, name, op);
    f();
  }
  return (NowNs() - t0) / 1e6;
}

/// Fingerprint of an ordered function: hash of its precise DSL.
uint64_t OrderFingerprint(const MatchingFunction& fn,
                          const FeatureCatalog& catalog) {
  return Fnv1a(FunctionToDsl(fn, catalog));
}

/// ns per pair of ComputeFeatureBlock for every similarity function,
/// averaged over the same-attribute features of the corpus.
void KernelProbe(const Corpus& corpus, uint64_t seed, Tracer& tracer,
                 Report& report) {
  FeatureCatalog catalog(corpus.a.schema(), corpus.b.schema());
  const std::vector<FeatureId> features = catalog.InternAllSameAttribute();
  PairContext ctx(corpus.a, corpus.b, catalog);
  ctx.Prewarm(features);
  Rng rng(seed);
  const size_t n = std::min(kProbePairs, corpus.pairs.size());
  CandidateSet probe = SamplePairs(
      corpus.pairs,
      static_cast<double>(n) / static_cast<double>(corpus.pairs.size()), rng,
      n);
  probe.Truncate(std::min(n, probe.size()));
  std::vector<uint64_t> mask((probe.size() + 63) / 64, ~uint64_t{0});
  if (probe.size() % 64 != 0) {
    mask.back() = (uint64_t{1} << (probe.size() % 64)) - 1;
  }
  std::vector<float> out(probe.size());
  std::map<SimFunction, std::pair<double, size_t>> per_fn;  // ns, pairs
  for (const FeatureId f : features) {
    const double ms = Timed(tracer, "text.kernel_block", f, [&] {
      ctx.ComputeFeatureBlock(f, probe.pairs().data(), probe.size(),
                              mask.data(), out.data());
    });
    auto& acc = per_fn[catalog.feature(f).fn];
    acc.first += ms * 1e6;
    acc.second += probe.size();
  }
  for (const SimFunction fn : AllSimFunctions()) {
    const auto& acc = per_fn[fn];
    report.Metric(std::string("text.") + GetSimFunctionInfo(fn).name +
                      ".ns_per_pair",
                  acc.second == 0 ? 0 : acc.first / acc.second, "ns");
  }
}

}  // namespace

void ReplayStages(const Args& args, const Bitmap* expected_matches,
                  Tracer& tracer, Report& report) {
  const InputPaths paths(args.dir);
  std::map<std::string, std::vector<double>> ms;
  std::set<uint64_t> orders;
  MatchStats cold_stats;
  size_t kernel_calls = 0;
  double memo_mb = 0, token_mb = 0, id_mb = 0;
  std::unique_ptr<Corpus> kept;
  for (int rep = 0; rep < kReplays; ++rep) {
    ScopedSpan root(&tracer, "replay", static_cast<uint64_t>(rep));
    auto corpus = std::make_unique<Corpus>();
    Status loaded;
    Result<MatchingFunction> fn = MatchingFunction();
    std::unique_ptr<FeatureCatalog> catalog;
    ms["data.load_ms"].push_back(Timed(tracer, "data.load_all", 0, [&] {
      loaded = LoadCorpus(paths, &tracer, corpus.get());
      catalog = std::make_unique<FeatureCatalog>(corpus->a.schema(),
                                                 corpus->b.schema());
      ScopedSpan s(&tracer, "data.load.rules");
      fn = LoadRulesFile(paths.rules, *catalog);
    }));
    if (!loaded.ok() || !fn.ok()) {
      report.Fail("replay: input load failed");
      return;
    }
    // Tokenize and intern every used feature's columns on a context of its
    // own. The tool builds them lazily, inside the cost model's sample
    // timings (which decide its plan), so the replay leaves that context
    // cold to keep the tool's plan.
    {
      PairContext warm(corpus->a, corpus->b, *catalog);
      ms["text.prewarm_ms"].push_back(Timed(tracer, "text.prewarm", 0, [&] {
        warm.Prewarm(fn->UsedFeatures());
      }));
      token_mb = warm.TokenCacheBytes() / 1048576.0;
      id_mb = warm.IdCacheBytes() / 1048576.0;
    }

    // emdbg_match's sequence: context, 1% sample (seeded Rng(1)), cost
    // model, greedy-reduction ordering, engine choice from the sample match
    // rate, match.
    PairContext ctx(corpus->a, corpus->b, *catalog);
    const size_t calls_before = ctx.compute_count();
    const CandidateSet pairs = corpus->pairs;
    Rng rng(1);
    const CandidateSet sample = SamplePairs(pairs, 0.01, rng, 100);
    CostModel model;
    ms["core.cost_model_ms"].push_back(Timed(tracer, "core.cost_model", 0,
        [&] { model = CostModel::EstimateForFunction(*fn, ctx, sample); }));
    MatchingFunction ordered = *fn;
    ms["core.ordering_ms"].push_back(Timed(tracer, "core.ordering", 0, [&] {
      ApplyOrdering(ordered, OrderingStrategy::kGreedyReduction, model,
                    nullptr);
    }));
    orders.insert(OrderFingerprint(ordered, *catalog));
    if (rep == 0) {
      // More estimate+order passes, each on a fresh context as the tool
      // would see it: how many distinct plans the same inputs get.
      for (int k = 0; k < kExtraOrderings; ++k) {
        PairContext fresh(corpus->a, corpus->b, *catalog);
        MatchingFunction again = *fn;
        ApplyOrdering(again, OrderingStrategy::kGreedyReduction,
                      CostModel::EstimateForFunction(*fn, fresh, sample),
                      nullptr);
        orders.insert(OrderFingerprint(again, *catalog));
      }
    }
    bool use_block = false;
    Timed(tracer, "core.match.probe", 0, [&] {
      MemoMatcher probe(MemoMatcher::Options{.check_cache_first = true});
      const MatchResult r = probe.Run(ordered, sample, ctx);
      use_block = !sample.empty() &&
                  static_cast<double>(r.MatchCount()) /
                          static_cast<double>(sample.size()) >=
                      0.02;
    });
    DenseMemo memo(pairs.size(), catalog->size());
    auto run = [&] {
      if (use_block) {
        BlockMatcher m(BlockMatcher::Options{.block_size = 0,
                                             .cost_model = &model});
        return m.RunWithMemo(ordered, pairs, ctx, memo);
      }
      MemoMatcher m(MemoMatcher::Options{.check_cache_first = true});
      return m.RunWithMemo(ordered, pairs, ctx, memo);
    };
    MatchResult cold;
    ms["core.match.cold_ms"].push_back(
        Timed(tracer, "core.match.cold", 0, [&] { cold = run(); }));
    MatchResult warm;
    ms["core.match.warm_ms"].push_back(
        Timed(tracer, "core.match.warm", 0, [&] { warm = run(); }));
    if (warm.matches.words() != cold.matches.words()) {
      report.Fail("replay: warm match differs from cold match");
    }
    if (expected_matches != nullptr &&
        cold.matches.words() != expected_matches->words()) {
      report.Fail("replay: match set differs from the workload's result");
    }
    CandidateSet matched;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (cold.matches.Get(i)) matched.Add(pairs.pair(i));
    }
    Status saved;
    ms["data.write_ms"].push_back(Timed(tracer, "data.write", 0, [&] {
      saved = SaveCandidatesCsv(matched, nullptr, args.dir + "/replay.csv");
    }));
    if (!saved.ok()) report.Fail("replay: write failed");
    cold_stats = cold.stats;
    kernel_calls = ctx.compute_count() - calls_before;
    memo_mb = memo.MemoryBytes() / 1048576.0;
    if (rep + 1 == kReplays) kept = std::move(corpus);
  }

  for (const char* name :
       {"data.load_ms", "data.write_ms", "text.prewarm_ms",
        "core.cost_model_ms", "core.ordering_ms", "core.match.cold_ms",
        "core.match.warm_ms"}) {
    report.Metric(name, Median(ms[name]), "ms");
  }
  report.Metric("text.kernel_calls", static_cast<double>(kernel_calls),
                "count");
  report.Metric("text.token_cache_mb", token_mb, "MB");
  report.Metric("text.id_cache_mb", id_mb, "MB");
  report.Metric("core.ordering.distinct_orders",
                static_cast<double>(orders.size()), "count");
  const double hits = static_cast<double>(cold_stats.memo_hits);
  const double comps = static_cast<double>(cold_stats.feature_computations);
  report.Metric("core.match.feature_computations", comps, "count");
  report.Metric("core.match.memo_hits", hits, "count");
  report.Metric("core.match.predicate_evaluations",
                static_cast<double>(cold_stats.predicate_evaluations),
                "count");
  report.Metric("core.match.rule_evaluations",
                static_cast<double>(cold_stats.rule_evaluations), "count");
  report.Metric("core.match.memo_hit_rate",
                hits + comps > 0 ? hits / (hits + comps) : 0, "1");
  report.Metric("core.match.memo_mb", memo_mb, "MB");
  KernelProbe(*kept, args.seed, tracer, report);
}

}  // namespace perfbench
