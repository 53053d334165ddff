/// Regenerates Fig. 5B: DM+EE matching time versus number of candidate
/// pairs, with the full rule set. The paper's claim: cost grows linearly
/// in the number of pairs (each pair is independent), which is why the
/// optimization techniques matter more as data sets grow.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/memo_matcher.h"
#include "src/core/ordering.h"
#include "src/util/stopwatch.h"

namespace emdbg::bench {
namespace {

void Run(const BenchOptions& opts) {
  const BenchEnv env = BenchEnv::Make(opts);
  PrintHeader("Figure 5B: run time (ms) vs number of candidate pairs",
              opts, env);
  MatchingFunction fn = env.RuleSubset(opts.rules, 4000);
  const CostModel model =
      CostModel::EstimateForFunction(fn, *env.ctx, env.sample);
  ApplyOrdering(fn, OrderingStrategy::kGreedyReduction, model, nullptr);

  const size_t total = env.ds.candidates.size();
  std::printf("%12s %12s %14s\n", "pairs", "time_ms", "ms_per_1k_pairs");
  for (const double frac : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    CandidateSet subset;
    const size_t n = static_cast<size_t>(frac * static_cast<double>(total));
    subset.Reserve(n);
    for (size_t i = 0; i < n; ++i) subset.Add(env.ds.candidates.pair(i));
    double ms = 0.0;
    for (size_t rep = 0; rep < opts.reps; ++rep) {
      // Fresh matcher + memo per rep; the shared id columns stay warm
      // (deliberate: we measure matching, not tokenization).
      MemoMatcher matcher;
      Stopwatch timer;
      matcher.Run(fn, subset, *env.ctx);
      ms += timer.ElapsedMillis();
    }
    ms /= static_cast<double>(opts.reps);
    std::printf("%12zu %12.1f %14.3f\n", n, ms,
                n == 0 ? 0.0 : ms * 1000.0 / static_cast<double>(n));
  }
  std::printf("# ms_per_1k_pairs should be roughly constant (linearity)\n\n");
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
