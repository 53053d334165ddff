/// Bounded-memory full runs: matches a candidate set whose memo footprint
/// (pairs × features × 4 bytes) is >=10x the memory budget with the
/// memo-less BlockMatcher::Run and checks the contract of DESIGN.md
/// Sec. 12 — (1) the run completes with peak RSS growth within budget +
/// 10% (plus the unbudgeted per-record text caches, reported separately)
/// and (2) matches, feature computations and predicate evaluations are
/// bit-identical to a cold MemoMatcher run, the paper's Alg. 4 with its
/// full memo. Written to BENCH_bounded.json; --assert-rss turns contract
/// violations into a nonzero exit for CI.

#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/core/block_matcher.h"
#include "src/core/memo_matcher.h"
#include "src/util/memory_budget.h"
#include "src/util/stopwatch.h"

namespace emdbg::bench {
namespace {

size_t PeakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

size_t ContextCacheBytes(const PairContext& ctx) {
  return ctx.IdCacheBytes() + ctx.interner().ArenaBytes() +
         ctx.interner().DictionaryBytes();
}

struct BoundedBenchResult {
  size_t pairs = 0;
  size_t features = 0;
  size_t memo_bytes = 0;
  size_t budget_bytes = 0;
  size_t budget_peak_bytes = 0;
  double bounded_ms = 0.0;
  double memo_matcher_ms = 0.0;
  size_t matches = 0;
  bool identical = false;
  size_t rss_delta_bytes = 0;
  size_t cache_bytes = 0;
  size_t rss_allowed_bytes = 0;
  bool rss_ok = false;
};

void WriteJson(const BenchOptions& opts, const BoundedBenchResult& r,
               const char* path) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return;
  }
  const double mb = 1048576.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bounded\",\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"scale\": %g,\n", opts.scale);
  std::fprintf(f, "  \"rules\": %zu,\n", opts.rules);
  std::fprintf(f, "  \"pairs\": %zu,\n", r.pairs);
  std::fprintf(f, "  \"features\": %zu,\n", r.features);
  std::fprintf(f, "  \"memo_mb\": %.2f,\n", r.memo_bytes / mb);
  std::fprintf(f, "  \"budget_mb\": %.2f,\n", r.budget_bytes / mb);
  std::fprintf(f, "  \"footprint_over_budget\": %.1f,\n",
               static_cast<double>(r.memo_bytes) /
                   static_cast<double>(r.budget_bytes));
  std::fprintf(f, "  \"budget_peak_mb\": %.2f,\n",
               r.budget_peak_bytes / mb);
  std::fprintf(f, "  \"bounded_ms\": %.1f,\n", r.bounded_ms);
  std::fprintf(f, "  \"memo_matcher_ms\": %.1f,\n", r.memo_matcher_ms);
  std::fprintf(f, "  \"matches\": %zu,\n", r.matches);
  std::fprintf(f, "  \"identical\": %s,\n", r.identical ? "true" : "false");
  std::fprintf(f, "  \"rss_delta_mb\": %.2f,\n", r.rss_delta_bytes / mb);
  std::fprintf(f, "  \"context_cache_mb\": %.2f,\n", r.cache_bytes / mb);
  std::fprintf(f, "  \"rss_allowed_mb\": %.2f,\n", r.rss_allowed_bytes / mb);
  std::fprintf(f, "  \"rss_ok\": %s\n", r.rss_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  if (std::rename(tmp.c_str(), path) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), path);
  }
}

int Run(const BenchOptions& opts, bool assert_rss) {
  const BenchEnv env = BenchEnv::Make(opts);
  PrintHeader("Bounded-memory full run under a memory budget", opts, env);
  const MatchingFunction fn = env.RuleSubset(opts.rules, 42);

  BoundedBenchResult r;
  r.pairs = env.ds.candidates.size();
  r.features = env.catalog.size();
  r.memo_bytes = r.pairs * r.features * sizeof(float);
  // Budget at 1/12 of the memo: comfortably past the >=10x acceptance
  // bar, and still far above the block scratch the run reserves.
  r.budget_bytes = std::max<size_t>(r.memo_bytes / 12, 256u << 10);

  // The bounded run goes FIRST so the peak-RSS high-water mark is
  // attributable to it, not to the oracle's memo.
  const size_t rss_before = PeakRssBytes();
  MatchResult bounded;
  MemoryBudget budget(r.budget_bytes, "bench-bounded");
  {
    PairContext ctx(env.ds.a, env.ds.b, env.catalog);
    BlockMatcher matcher(BlockMatcher::Options{.budget = &budget});
    Stopwatch watch;
    bounded = matcher.Run(fn, env.ds.candidates, ctx);
    r.bounded_ms = watch.ElapsedMillis();
    r.cache_bytes = ContextCacheBytes(ctx);
  }
  const size_t rss_after = PeakRssBytes();
  r.budget_peak_bytes = budget.peak();
  r.rss_delta_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
  // The ceiling: 110% of the budget, plus the per-record text caches the
  // budget deliberately does not govern here (they are O(records), not
  // O(pairs), and are reported so regressions stay visible), plus a
  // fixed 2 MiB of allocator slack.
  r.rss_allowed_bytes = r.budget_bytes + r.budget_bytes / 10 +
                        r.cache_bytes + (size_t{2} << 20);
  r.rss_ok = r.rss_delta_bytes <= r.rss_allowed_bytes;

  if (bounded.partial) {
    std::fprintf(stderr, "bounded run failed: %s\n",
                 bounded.status.ToString().c_str());
    return 1;
  }

  // Oracle: Alg. 4 with its full pairs × features memo, no budget.
  MatchResult oracle;
  {
    PairContext ctx(env.ds.a, env.ds.b, env.catalog);
    MemoMatcher matcher;
    Stopwatch watch;
    oracle = matcher.Run(fn, env.ds.candidates, ctx);
    r.memo_matcher_ms = watch.ElapsedMillis();
  }
  r.matches = oracle.MatchCount();
  r.identical =
      bounded.matches == oracle.matches &&
      bounded.stats.feature_computations ==
          oracle.stats.feature_computations &&
      bounded.stats.predicate_evaluations ==
          oracle.stats.predicate_evaluations;

  std::printf(
      "memo %.1f MB over %.2f MB budget (%.1fx); budget peak %.2f MB\n",
      r.memo_bytes / 1048576.0, r.budget_bytes / 1048576.0,
      static_cast<double>(r.memo_bytes) /
          static_cast<double>(r.budget_bytes),
      r.budget_peak_bytes / 1048576.0);
  std::printf("bounded %.1f ms vs MemoMatcher %.1f ms; identical=%s\n",
              r.bounded_ms, r.memo_matcher_ms,
              r.identical ? "yes" : "NO (BUG)");
  std::printf(
      "peak RSS growth %.1f MB vs allowed %.1f MB (budget %.2f MB + 10%% "
      "+ caches %.1f MB + 2 MB slack): %s\n",
      r.rss_delta_bytes / 1048576.0, r.rss_allowed_bytes / 1048576.0,
      r.budget_bytes / 1048576.0, r.cache_bytes / 1048576.0,
      r.rss_ok ? "ok" : "EXCEEDED");

  WriteJson(opts, r, "BENCH_bounded.json");
  std::printf("wrote BENCH_bounded.json\n");

  if (!r.identical) {
    std::fprintf(stderr, "FAIL: bounded result not bit-identical\n");
    return 1;
  }
  if (assert_rss && !r.rss_ok) {
    std::fprintf(stderr, "FAIL: --assert-rss: RSS ceiling exceeded\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  bool assert_rss = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--assert-rss") assert_rss = true;
  }
  return emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv),
                           assert_rss);
}
