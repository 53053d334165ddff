/// PR bench: columnar batch evaluation (BlockMatcher, one feature across
/// a whole block of pairs) versus the per-pair DM+EE matcher it
/// re-implements bit-identically.
///
/// For each dataset (products, books — the two Table 2 profiles the
/// kernel bench uses) and each strategy the harness reports an estimated
/// per-stage wall-time decomposition:
///   context_ms — PairContext construction (tokenize + intern + caches),
///                shared across strategies;
///   cold_ms    — end-to-end matching against an empty memo (feature
///                kernels + memo probes + predicate eval + combine);
///   warm_ms    — the same run repeated on the now-warm memo, so every
///                feature is a memo hit: probes + predicates + combine +
///                orchestration only;
///   kernel_ms  — cold_ms − warm_ms, the estimated feature-kernel share.
///
/// The gap the block engine closes is the warm component: the kernels
/// were vectorized in an earlier PR, but the per-pair evaluation loop
/// still paid virtual dispatch, scattered memo probes and branchy rule
/// logic per pair. Written to BENCH_block.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/block_matcher.h"
#include "src/core/memo.h"
#include "src/core/memo_matcher.h"
#include "src/core/ordering.h"
#include "src/util/stopwatch.h"

namespace emdbg::bench {
namespace {

struct StagePoint {
  std::string strategy;    // "per_pair", "block_auto", "block_1024"
  size_t block_size = 1;   // resolved pairs per block (1 = per-pair)
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double kernel_ms = 0.0;  // cold - warm (estimated kernel share)
  size_t matches = 0;
  size_t feature_computations = 0;
  size_t predicate_evaluations = 0;
  size_t memo_hits = 0;
};

struct DatasetPoint {
  std::string dataset;
  std::string scenario;  // "permissive" or "selective"
  size_t candidates = 0;
  size_t matches = 0;
  double context_ms = 0.0;
  std::vector<StagePoint> strategies;
  double speedup_cold = 0.0;  // per_pair cold / block_auto cold
  double speedup_warm = 0.0;  // per_pair warm / block_auto warm
  // per_pair / best block strategy (auto and fixed-1024 are the same
  // engine; on a noisy box the min across both is the stabler estimate).
  double speedup_cold_best = 0.0;
  double speedup_warm_best = 0.0;
  bool identical = true;      // all strategies agree bit-for-bit
};

// Times one strategy: best-of-reps cold run (fresh memo each rep), then
// best-of-reps warm run against a memo the last cold run filled.
template <typename MakeMatcher>
StagePoint RunStrategy(const char* name, size_t block_size,
                       const MatchingFunction& fn,
                       const CandidateSet& pairs, PairContext& ctx,
                       size_t num_features, size_t reps,
                       MakeMatcher make_matcher) {
  StagePoint point;
  point.strategy = name;
  point.block_size = block_size;
  MatchResult cold;
  std::unique_ptr<DenseMemo> memo;
  for (size_t rep = 0; rep < reps; ++rep) {
    memo = std::make_unique<DenseMemo>(pairs.size(), num_features);
    auto matcher = make_matcher();
    Stopwatch timer;
    cold = matcher->RunWithMemo(fn, pairs, ctx, *memo);
    point.cold_ms = rep == 0 ? timer.ElapsedMillis()
                             : std::min(point.cold_ms,
                                        timer.ElapsedMillis());
  }
  for (size_t rep = 0; rep < reps; ++rep) {
    auto matcher = make_matcher();
    Stopwatch timer;
    (void)matcher->RunWithMemo(fn, pairs, ctx, *memo);
    point.warm_ms = rep == 0 ? timer.ElapsedMillis()
                             : std::min(point.warm_ms,
                                        timer.ElapsedMillis());
  }
  point.kernel_ms = std::max(0.0, point.cold_ms - point.warm_ms);
  point.matches = cold.MatchCount();
  point.feature_computations = cold.stats.feature_computations;
  point.predicate_evaluations = cold.stats.predicate_evaluations;
  point.memo_hits = cold.stats.memo_hits;
  std::printf(
      "  %-10s block=%5zu cold %9.1f ms  warm %9.1f ms  kernel %9.1f ms "
      " (%zu matches, %zu computes)\n",
      name, point.block_size, point.cold_ms, point.warm_ms,
      point.kernel_ms, point.matches, point.feature_computations);
  return point;
}

// Two rule-set regimes per dataset. "permissive" is the generator's
// default (thresholds at mid quantiles): most candidate pairs match an
// early rule, so the DNF loop early-exits and feature kernels dominate.
// "selective" tightens every threshold to the 0.97–0.999 quantile — the
// realistic production-EM regime where matches are rare, non-matching
// pairs must try all rules, and per-pair orchestration (one memo probe +
// one branchy compare per (pair, rule)) is the bottleneck the columnar
// engine removes.
DatasetPoint BenchDataset(DatasetId dataset, bool selective,
                          const BenchOptions& opts) {
  BenchOptions local = opts;
  local.dataset = dataset;
  const BenchEnv env = BenchEnv::Make(local);
  // Default 255 rules: the paper's full Products rule-set size, which is
  // the probe-heavy regime the block engine targets (bench_kernels caps
  // its end-to-end section at 80 rules for time).
  const size_t num_rules = std::min<size_t>(opts.rules, 255);
  MatchingFunction fn;
  if (selective) {
    RuleGeneratorConfig config = env.generator->config();
    config.num_rules = num_rules;
    config.quantile_lo = 0.97;
    config.quantile_hi = 0.999;
    config.upper_bound_fraction = 0.0;
    config.seed = 4242;
    fn = RuleGenerator(*env.ctx, env.sample, config).Generate();
  } else {
    fn = env.RuleSubset(num_rules, 4242);
  }

  DatasetPoint point;
  point.dataset = env.profile.name;
  point.scenario = selective ? "selective" : "permissive";
  point.candidates = env.ds.candidates.size();
  std::printf("dataset %s (%s rules): %zu candidate pairs\n",
              point.dataset.c_str(), point.scenario.c_str(),
              point.candidates);

  // Shared evaluation context (the block engine reuses the per-pair
  // engine's context unchanged); its construction is the tokenize +
  // intern stage both strategies amortize.
  std::unique_ptr<PairContext> ctx;
  for (size_t rep = 0; rep < opts.reps; ++rep) {
    Stopwatch timer;
    ctx = std::make_unique<PairContext>(env.ds.a, env.ds.b, env.catalog);
    point.context_ms =
        rep == 0 ? timer.ElapsedMillis()
                 : std::min(point.context_ms, timer.ElapsedMillis());
  }
  const CostModel model =
      CostModel::EstimateForFunction(fn, *ctx, env.sample);
  ApplyOrdering(fn, OrderingStrategy::kGreedyReduction, model, nullptr);
  const size_t num_features = env.catalog.size();

  point.strategies.push_back(RunStrategy(
      "per_pair", 1, fn, env.ds.candidates, *ctx, num_features, opts.reps,
      [] { return std::make_unique<MemoMatcher>(); }));
  const size_t auto_block = BlockMatcher::ResolveBlockSize(
      BlockMatcher::Options{.block_size = 0, .cost_model = &model}, fn);
  point.strategies.push_back(RunStrategy(
      "block_auto", auto_block, fn, env.ds.candidates, *ctx, num_features,
      opts.reps, [&] {
        return std::make_unique<BlockMatcher>(BlockMatcher::Options{
            .block_size = 0, .cost_model = &model});
      }));
  point.strategies.push_back(RunStrategy(
      "block_1024", 1024, fn, env.ds.candidates, *ctx, num_features,
      opts.reps, [] {
        return std::make_unique<BlockMatcher>(
            BlockMatcher::Options{.block_size = 1024});
      }));

  const StagePoint& pp = point.strategies[0];
  const StagePoint& ba = point.strategies[1];
  point.matches = pp.matches;
  point.speedup_cold = ba.cold_ms > 0.0 ? pp.cold_ms / ba.cold_ms : 0.0;
  point.speedup_warm = ba.warm_ms > 0.0 ? pp.warm_ms / ba.warm_ms : 0.0;
  double best_cold = ba.cold_ms;
  double best_warm = ba.warm_ms;
  for (size_t j = 1; j < point.strategies.size(); ++j) {
    best_cold = std::min(best_cold, point.strategies[j].cold_ms);
    best_warm = std::min(best_warm, point.strategies[j].warm_ms);
  }
  point.speedup_cold_best = best_cold > 0.0 ? pp.cold_ms / best_cold : 0.0;
  point.speedup_warm_best = best_warm > 0.0 ? pp.warm_ms / best_warm : 0.0;
  for (const StagePoint& s : point.strategies) {
    if (s.matches != pp.matches ||
        s.feature_computations != pp.feature_computations ||
        s.predicate_evaluations != pp.predicate_evaluations) {
      point.identical = false;
    }
  }
  std::printf(
      "  speedup: cold %.2fx  warm %.2fx  (best block: cold %.2fx  "
      "warm %.2fx)  identical=%s\n",
      point.speedup_cold, point.speedup_warm, point.speedup_cold_best,
      point.speedup_warm_best, point.identical ? "yes" : "NO (BUG)");
  return point;
}

void WriteJson(const BenchOptions& opts,
               const std::vector<DatasetPoint>& datasets,
               const char* path) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"block\",\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"scale\": %g,\n", opts.scale);
  std::fprintf(f, "  \"rules\": %zu,\n", opts.rules);
  std::fprintf(f, "  \"reps\": %zu,\n", opts.reps);
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < datasets.size(); ++i) {
    const DatasetPoint& d = datasets[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"scenario\": \"%s\", "
                 "\"candidates\": %zu, \"matches\": %zu,\n",
                 d.dataset.c_str(), d.scenario.c_str(), d.candidates,
                 d.matches);
    std::fprintf(f, "     \"context_ms\": %.1f,\n", d.context_ms);
    std::fprintf(f, "     \"strategies\": [\n");
    for (size_t j = 0; j < d.strategies.size(); ++j) {
      const StagePoint& s = d.strategies[j];
      std::fprintf(
          f,
          "       {\"strategy\": \"%s\", \"block_size\": %zu, "
          "\"cold_ms\": %.1f, \"warm_ms\": %.1f, \"kernel_ms\": %.1f, "
          "\"matches\": %zu, \"feature_computations\": %zu, "
          "\"predicate_evaluations\": %zu, \"memo_hits\": %zu}%s\n",
          s.strategy.c_str(), s.block_size, s.cold_ms, s.warm_ms,
          s.kernel_ms, s.matches, s.feature_computations,
          s.predicate_evaluations, s.memo_hits,
          j + 1 == d.strategies.size() ? "" : ",");
    }
    std::fprintf(f, "     ],\n");
    std::fprintf(f,
                 "     \"speedup_cold\": %.2f, \"speedup_warm\": %.2f, "
                 "\"speedup_cold_best\": %.2f, "
                 "\"speedup_warm_best\": %.2f, "
                 "\"identical\": %s}%s\n",
                 d.speedup_cold, d.speedup_warm, d.speedup_cold_best,
                 d.speedup_warm_best, d.identical ? "true" : "false",
                 i + 1 == datasets.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  if (std::rename(tmp.c_str(), path) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), path);
  }
}

void Run(const BenchOptions& opts) {
  std::printf("## Columnar batch evaluation vs per-pair DM+EE\n");
  std::vector<DatasetPoint> datasets;
  datasets.push_back(BenchDataset(DatasetId::kProducts, false, opts));
  datasets.push_back(BenchDataset(DatasetId::kProducts, true, opts));
  datasets.push_back(BenchDataset(DatasetId::kBooks, false, opts));
  datasets.push_back(BenchDataset(DatasetId::kBooks, true, opts));
  WriteJson(opts, datasets, "BENCH_block.json");
  std::printf("wrote BENCH_block.json\n");
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
