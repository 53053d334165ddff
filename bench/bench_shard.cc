/// Out-of-core sharded matching: streams a candidate set whose memo
/// footprint is >=10x the memory budget through ShardedMatchDriver and
/// checks the three contract points of DESIGN.md Sec. 12 — (1) the run
/// completes with peak RSS growth within budget + 10% (plus the
/// unbudgeted per-record text caches, reported separately), (2) results
/// are bit-identical to one monolithic in-RAM run, and (3) on a workload
/// that *fits* the budget, sharding costs at most ~1.3x the in-RAM
/// engine. Written to BENCH_shard.json; --assert-rss turns contract
/// violations into a nonzero exit for CI.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/core/block_matcher.h"
#include "src/core/shard_driver.h"
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

struct ShardBenchResult {
  size_t pairs = 0;
  size_t features = 0;
  size_t memo_bytes = 0;
  size_t budget_bytes = 0;
  size_t shards = 0;
  size_t shard_pairs = 0;
  size_t spilled_bytes = 0;
  double sharded_ms = 0.0;
  double inram_ms = 0.0;
  double fitting_ms = 0.0;
  size_t matches = 0;
  bool identical = false;
  size_t rss_delta_bytes = 0;
  size_t cache_bytes = 0;
  size_t rss_allowed_bytes = 0;
  bool rss_ok = false;
};

void WriteJson(const BenchOptions& opts, const ShardBenchResult& r,
               const char* path) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return;
  }
  const double mb = 1048576.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"shard\",\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"scale\": %g,\n", opts.scale);
  std::fprintf(f, "  \"rules\": %zu,\n", opts.rules);
  std::fprintf(f, "  \"reps\": %zu,\n", opts.reps);
  std::fprintf(f, "  \"pairs\": %zu,\n", r.pairs);
  std::fprintf(f, "  \"features\": %zu,\n", r.features);
  std::fprintf(f, "  \"memo_mb\": %.2f,\n", r.memo_bytes / mb);
  std::fprintf(f, "  \"budget_mb\": %.2f,\n", r.budget_bytes / mb);
  std::fprintf(f, "  \"footprint_over_budget\": %.1f,\n",
               static_cast<double>(r.memo_bytes) /
                   static_cast<double>(r.budget_bytes));
  std::fprintf(f, "  \"shards\": %zu,\n", r.shards);
  std::fprintf(f, "  \"shard_pairs\": %zu,\n", r.shard_pairs);
  std::fprintf(f, "  \"spilled_mb\": %.2f,\n", r.spilled_bytes / mb);
  std::fprintf(f, "  \"sharded_spilling_ms\": %.1f,\n", r.sharded_ms);
  std::fprintf(f, "  \"inram_ms\": %.1f,\n", r.inram_ms);
  std::fprintf(f, "  \"spilling_slowdown\": %.2f,\n",
               r.inram_ms > 0.0 ? r.sharded_ms / r.inram_ms : 0.0);
  std::fprintf(f, "  \"fitting_sharded_ms\": %.1f,\n", r.fitting_ms);
  std::fprintf(f, "  \"fitting_ratio\": %.2f,\n",
               r.inram_ms > 0.0 ? r.fitting_ms / r.inram_ms : 0.0);
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
  PrintHeader("Out-of-core sharded matching under a memory budget", opts,
              env);
  const MatchingFunction fn = env.RuleSubset(opts.rules, 42);

  ShardBenchResult r;
  r.pairs = env.ds.candidates.size();
  r.features = env.catalog.size();
  r.memo_bytes = r.pairs * r.features * sizeof(float);
  // Budget at 1/12 of the monolithic memo: comfortably past the >=10x
  // acceptance bar, small enough to force dozens of shards.
  r.budget_bytes = std::max<size_t>(r.memo_bytes / 12, 256u << 10);

  const std::string spill_dir =
      "/tmp/bench_shard_" + std::to_string(getpid());
  ::mkdir(spill_dir.c_str(), 0755);

  // Phase B runs FIRST so the peak-RSS high-water mark is attributable
  // to the spilling run, not a previous monolithic memo.
  const size_t rss_before = PeakRssBytes();
  MatchResult sharded;
  MemoryBudget budget(r.budget_bytes, "bench-shard");
  {
    PairContext ctx(env.ds.a, env.ds.b, env.catalog);
    ShardedMatchDriver::Options o;
    o.spill_dir = spill_dir;
    o.budget = &budget;
    o.keep_state = true;
    ShardedMatchDriver driver(o);
    Stopwatch watch;
    sharded = driver.Run(fn, env.ds.candidates, ctx);
    r.sharded_ms = watch.ElapsedMillis();
    r.shards = driver.shards().size();
    r.shard_pairs = driver.shard_pairs();
    r.spilled_bytes = driver.spilled_bytes();
    r.cache_bytes = ContextCacheBytes(ctx);
    for (const auto& info : driver.shards()) {
      if (!info.state_path.empty()) std::remove(info.state_path.c_str());
    }
  }
  const size_t rss_after = PeakRssBytes();
  ::rmdir(spill_dir.c_str());
  r.rss_delta_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
  // The ceiling: 110% of the budget, plus the per-record text caches the
  // budget deliberately does not govern (they are O(records), not
  // O(pairs), and are reported so regressions stay visible), plus a
  // fixed 2 MiB of allocator slack — glibc arenas keep freed shard
  // memos resident, so RSS never returns what the budget released.
  r.rss_allowed_bytes = r.budget_bytes + r.budget_bytes / 10 +
                        r.cache_bytes + (size_t{2} << 20);
  r.rss_ok = r.rss_delta_bytes <= r.rss_allowed_bytes;

  if (sharded.partial) {
    std::fprintf(stderr, "sharded run failed: %s\n",
                 sharded.status.ToString().c_str());
    return 1;
  }

  // In-RAM monolithic baseline: same engine family, no budget.
  MatchResult inram;
  {
    PairContext ctx(env.ds.a, env.ds.b, env.catalog);
    BlockMatcher matcher;
    Stopwatch watch;
    inram = matcher.Run(fn, env.ds.candidates, ctx);
    r.inram_ms = watch.ElapsedMillis();
  }
  r.matches = inram.MatchCount();
  r.identical =
      sharded.matches == inram.matches &&
      sharded.stats.feature_computations ==
          inram.stats.feature_computations &&
      sharded.stats.predicate_evaluations ==
          inram.stats.predicate_evaluations;

  // Budget-fitting workload: sharding overhead with no pressure (one
  // default-sized shard, no state spilling).
  {
    PairContext ctx(env.ds.a, env.ds.b, env.catalog);
    ShardedMatchDriver::Options o;
    o.keep_state = false;
    ShardedMatchDriver driver(o);
    Stopwatch watch;
    MatchResult fitting = driver.Run(fn, env.ds.candidates, ctx);
    r.fitting_ms = watch.ElapsedMillis();
    if (fitting.partial || !(fitting.matches == inram.matches)) {
      std::fprintf(stderr, "budget-fitting sharded run diverged\n");
      return 1;
    }
  }

  std::printf(
      "memo %.1f MB over %.2f MB budget (%.1fx): %zu shards x %zu pairs, "
      "spilled %.1f MB\n",
      r.memo_bytes / 1048576.0, r.budget_bytes / 1048576.0,
      static_cast<double>(r.memo_bytes) /
          static_cast<double>(r.budget_bytes),
      r.shards, r.shard_pairs, r.spilled_bytes / 1048576.0);
  std::printf(
      "spilling %.1f ms vs in-RAM %.1f ms (%.2fx); fitting %.1f ms "
      "(%.2fx); identical=%s\n",
      r.sharded_ms, r.inram_ms,
      r.inram_ms > 0.0 ? r.sharded_ms / r.inram_ms : 0.0, r.fitting_ms,
      r.inram_ms > 0.0 ? r.fitting_ms / r.inram_ms : 0.0,
      r.identical ? "yes" : "NO (BUG)");
  std::printf(
      "peak RSS growth %.1f MB vs allowed %.1f MB (budget %.2f MB + 10%% "
      "+ caches %.1f MB + 2 MB slack): %s\n",
      r.rss_delta_bytes / 1048576.0, r.rss_allowed_bytes / 1048576.0,
      r.budget_bytes / 1048576.0, r.cache_bytes / 1048576.0,
      r.rss_ok ? "ok" : "EXCEEDED");

  WriteJson(opts, r, "BENCH_shard.json");
  std::printf("wrote BENCH_shard.json\n");

  if (!r.identical) {
    std::fprintf(stderr, "FAIL: sharded result not bit-identical\n");
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
