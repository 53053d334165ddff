/// Batch matching tool: loads two CSV tables, a candidate-pair file (or
/// blocks with an equality key), and a rule file, runs the optimized
/// DM+EE matcher, and writes the matched pairs to CSV. Completes the
/// offline toolchain: gen_dataset → (edit rules in emdbg_repl) →
/// emdbg_match.
///
/// Usage:
///   emdbg_match --a=a.csv --b=b.csv --rules=r.rules
///               (--pairs=pairs.csv | --block-key=category)
///               [--out=matches.csv] [--threads=N] [--deadline-ms=N]
///               [--mem-budget=BYTES]
///
/// The run is columnar block evaluation (one feature across a whole block
/// of pairs, see src/core/block_matcher.h), with a cost-model-sized block,
/// in this thread or over a pool of --threads workers (0 = all hardware
/// threads). Results are bit-identical for every thread count.
///
/// No memo is built: each worker holds one block of score columns, so
/// the run's matching state is the candidate set and the match bitmaps
/// (O(pairs) bits) plus O(block × features × workers) scratch, never the
/// O(pairs × features) memo. --mem-budget caps the per-record text caches
/// and the block scratch. The scratch comes first: the run drops the
/// caches when they leave no room for it, and a cache the budget refuses
/// is rebuilt per call with identical results.
///
/// Ctrl-C (SIGINT), SIGTERM, SIGHUP, or an exceeded --deadline-ms stops
/// the run cleanly: the pairs evaluated so far are still written out,
/// with a warning that the result is partial.

#include <cstdio>
#include <memory>
#include <string>

#include "src/block/key_blocker.h"
#include "src/core/block_matcher.h"
#include "src/core/cost_model.h"
#include "src/core/ordering.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/data/candidate_io.h"
#include "src/data/table_io.h"
#include "src/util/cancellation.h"
#include "src/util/memory_budget.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

using namespace emdbg;

namespace {

struct Args {
  std::string a_path;
  std::string b_path;
  std::string rules_path;
  std::string pairs_path;
  std::string block_key;
  std::string out_path = "matches.csv";
  size_t threads = 1;
  int64_t deadline_ms = 0;  // 0 = no deadline
  size_t mem_budget = 0;    // 0 = unbudgeted

  /// "1048576", "64K", "16M", "1G" (case-insensitive suffix).
  static bool ParseBytes(std::string_view s, size_t* out) {
    size_t mult = 1;
    if (!s.empty()) {
      const char c = s.back();
      if (c == 'k' || c == 'K') mult = size_t{1} << 10;
      if (c == 'm' || c == 'M') mult = size_t{1} << 20;
      if (c == 'g' || c == 'G') mult = size_t{1} << 30;
      if (mult != 1) s.remove_suffix(1);
    }
    int64_t n = 0;
    if (!ParseInt64(s, &n) || n < 0) return false;
    *out = static_cast<size_t>(n) * mult;
    return true;
  }

  static bool Parse(int argc, char** argv, Args* out) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      int64_t n = 0;
      if (StartsWith(arg, "--a=")) {
        out->a_path = arg.substr(4);
      } else if (StartsWith(arg, "--b=")) {
        out->b_path = arg.substr(4);
      } else if (StartsWith(arg, "--rules=")) {
        out->rules_path = arg.substr(8);
      } else if (StartsWith(arg, "--pairs=")) {
        out->pairs_path = arg.substr(8);
      } else if (StartsWith(arg, "--block-key=")) {
        out->block_key = arg.substr(12);
      } else if (StartsWith(arg, "--out=")) {
        out->out_path = arg.substr(6);
      } else if (StartsWith(arg, "--threads=") &&
                 ParseInt64(arg.substr(10), &n) && n >= 0) {
        // 0 = all hardware threads.
        out->threads = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--deadline-ms=") &&
                 ParseInt64(arg.substr(14), &n) && n > 0) {
        out->deadline_ms = n;
      } else if (StartsWith(arg, "--mem-budget=")) {
        if (!ParseBytes(std::string_view(arg).substr(13),
                        &out->mem_budget)) {
          return false;
        }
      } else {
        return false;
      }
    }
    return !out->a_path.empty() && !out->b_path.empty() &&
           !out->rules_path.empty() &&
           (!out->pairs_path.empty() || !out->block_key.empty());
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Args::Parse(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: emdbg_match --a=a.csv --b=b.csv --rules=r.rules "
        "(--pairs=p.csv | --block-key=attr) [--out=matches.csv] "
        "[--threads=N] [--deadline-ms=N] [--mem-budget=BYTES]\n");
    return 1;
  }

  auto table_a = LoadTableCsv(args.a_path);
  auto table_b = LoadTableCsv(args.b_path);
  if (!table_a.ok() || !table_b.ok()) {
    std::fprintf(stderr, "table load failed: %s %s\n",
                 table_a.status().ToString().c_str(),
                 table_b.status().ToString().c_str());
    return 1;
  }

  FeatureCatalog catalog(table_a->schema(), table_b->schema());
  auto fn = LoadRulesFile(args.rules_path, catalog);
  if (!fn.ok()) {
    std::fprintf(stderr, "rules load failed: %s\n",
                 fn.status().ToString().c_str());
    return 1;
  }

  CandidateSet pairs;
  if (!args.pairs_path.empty()) {
    auto loaded = LoadCandidatesCsv(args.pairs_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "pairs load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    pairs = std::move(loaded->candidates);
  } else {
    auto blocked = KeyBlocker(args.block_key).Block(*table_a, *table_b);
    if (!blocked.ok()) {
      std::fprintf(stderr, "blocking failed: %s\n",
                   blocked.status().ToString().c_str());
      return 1;
    }
    pairs = std::move(*blocked);
  }
  std::printf("%zu rules over %zu candidate pairs\n", fn->num_rules(),
              pairs.size());

  std::unique_ptr<MemoryBudget> budget;
  if (args.mem_budget > 0) {
    budget = std::make_unique<MemoryBudget>(args.mem_budget, "emdbg_match");
  }

  // The budget governs the per-record text caches and the block scratch
  // (DESIGN.md Sec. 12).
  PairContext ctx(*table_a, *table_b, catalog,
                  PairContext::Options{.budget = budget.get()});
  Rng rng(1);
  const CandidateSet sample = SamplePairs(pairs, 0.01, rng, 100);
  const CostModel model = CostModel::EstimateForFunction(*fn, ctx, sample);
  ApplyOrdering(*fn, OrderingStrategy::kGreedyReduction, model, nullptr);

  // Ctrl-C, SIGTERM, and SIGHUP all trip the token; the matcher drains
  // and returns a partial result — written out below — instead of the
  // process dying mid-run with nothing on disk.
  CancellationToken cancel;
  ShutdownSignals shutdown(cancel);
  RunControl control =
      args.deadline_ms > 0
          ? RunControl(cancel, Deadline::AfterMillis(
                                   static_cast<double>(args.deadline_ms)))
          : RunControl(cancel);

  // Persistent pool (0 = all hardware threads): spawned once here, so a
  // tool embedding several runs would reuse the same workers.
  std::unique_ptr<ThreadPool> pool;
  if (args.threads != 1) pool = std::make_unique<ThreadPool>(args.threads);

  Stopwatch timer;
  BlockMatcher matcher(BlockMatcher::Options{
      .cost_model = &model, .budget = budget.get(), .pool = pool.get()});
  const MatchResult result = matcher.Run(*fn, pairs, ctx, control);
  std::printf("%zu matches in %.1f ms (%s)\n", result.MatchCount(),
              timer.ElapsedMillis(), result.stats.ToString().c_str());
  if (result.partial) {
    std::fprintf(stderr,
                 "warning: run stopped early (%s); writing the %zu of %zu "
                 "pairs that were evaluated\n",
                 result.status.ToString().c_str(), result.pairs_completed,
                 pairs.size());
  }

  // Matched pairs only; on a partial run, only evaluated pairs count.
  CandidateSet matched;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (result.partial && !result.evaluated.Get(i)) continue;
    if (result.matches.Get(i)) matched.Add(pairs.pair(i));
  }
  const Status save = SaveCandidatesCsv(matched, nullptr, args.out_path);
  if (!save.ok()) {
    std::fprintf(stderr, "write failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.out_path.c_str());
  if (shutdown.exit_requested()) {
    std::fprintf(stderr, "shutdown requested: partial results are on disk; "
                         "re-run to complete\n");
  }
  return 0;
}
