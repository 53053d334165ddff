/// Regenerates the Sec. 7.4 memory-consumption discussion: the size of the
/// dense memo (the paper's 2-D similarity array, 22 MB for Products) and
/// the per-rule / per-predicate bitmaps used for incremental matching (the
/// paper reports 542 MB for Java boolean arrays; packed bitmaps are 8x
/// smaller by construction). Also compares the dense memo against the
/// hash-map alternative at the observed fill rate.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/incremental.h"
#include "src/core/memo.h"

namespace emdbg::bench {
namespace {

void Run(const BenchOptions& opts) {
  const BenchEnv env = BenchEnv::Make(opts);
  PrintHeader("Sec. 7.4: memory consumption of materialized state", opts,
              env);

  const MatchingFunction fn = env.RuleSubset(opts.rules, 42);
  IncrementalMatcher inc(*env.ctx, env.ds.candidates);
  inc.FullRun(fn);
  const MatchState& state = inc.state();

  const size_t pairs = env.ds.candidates.size();
  const size_t features = env.catalog.size();
  std::printf("rules=%zu predicates=%zu pairs=%zu features=%zu\n",
              fn.num_rules(), fn.num_predicates(), pairs, features);
  std::printf("%s\n", state.MemoryReport().c_str());

  // The interned-token layer: dictionary + arena of the shared
  // TokenInterner and the per-record id/tf/weight arrays it feeds.
  const TokenInterner& interner = env.ctx->interner();
  std::printf(
      "token interner: %zu tokens, arena %.2f MB, dictionary %.2f MB; "
      "id caches %.2f MB\n",
      static_cast<size_t>(interner.size()),
      static_cast<double>(interner.ArenaBytes()) / 1048576.0,
      static_cast<double>(interner.DictionaryBytes()) / 1048576.0,
      static_cast<double>(env.ctx->IdCacheBytes()) / 1048576.0);

  // Dense-vs-hash trade-off at the observed fill rate (Sec. 7.4's
  // "consider a hash-map for larger data sets").
  const size_t filled = state.memo().FilledCount();
  const double fill_rate =
      static_cast<double>(filled) /
      static_cast<double>(pairs * features);
  HashMemo hash;
  // Model the hash memo at the same fill (keys don't affect size).
  for (size_t i = 0; i < filled; ++i) {
    hash.Store(i % pairs, static_cast<FeatureId>(i % features), 0.5f);
  }
  std::printf(
      "memo fill rate: %.1f%% -> dense %.2f MB vs hash-map approx %.2f MB\n",
      fill_rate * 100.0,
      static_cast<double>(state.memo().MemoryBytes()) / 1048576.0,
      static_cast<double>(hash.MemoryBytes()) / 1048576.0);

  // Paper-scale extrapolation (291,649 pairs, 33 features, 255 rules,
  // 1,688 predicates) without allocating at scale.
  const double memo_mb = 291649.0 * 33.0 * sizeof(float) / 1048576.0;
  const double bitmap_mb = (255.0 + 1688.0) * (291649.0 / 8.0) / 1048576.0;
  std::printf(
      "paper-scale extrapolation: memo %.1f MB, bitmaps %.1f MB "
      "(paper: 22 MB array + 542 MB Java boolean bitmaps)\n\n",
      memo_mb, bitmap_mb);
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
