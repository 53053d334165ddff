#ifndef EMDBG_CORE_PARALLEL_MATCHER_H_
#define EMDBG_CORE_PARALLEL_MATCHER_H_

#include "src/core/cost_model.h"
#include "src/core/match_state.h"
#include "src/core/matcher.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// Multi-threaded DM+EE (Algorithm 4). Candidate pairs are independent
/// (Sec. 7.5's linearity observation), so the pair loop parallelizes: the
/// dense memo partitions by pair row, and the shared id columns /
/// TF-IDF weights are prewarmed before the parallel phase so worker
/// threads only read shared state.
///
/// Scheduling is dynamic: workers claim 64-aligned chunks from a
/// work-stealing ThreadPool instead of static equal partitions. Early
/// exit makes per-pair cost wildly skewed (a match stops at its first
/// true rule; a non-match evaluates every rule), so a static carve-up
/// lets one unlucky chunk dominate wall-clock; chunk claiming + stealing
/// keeps all workers busy until the range drains. The 64-index chunk
/// alignment (ThreadPool::kIndexAlign) also means workers never share a
/// bitmap word, so RunWithState records the per-rule/per-predicate
/// decision bitmaps concurrently with zero locking.
///
/// Every pair's evaluation touches only its own memo row and bitmap bit,
/// so the output — match bits, decision bitmaps, even the MatchStats
/// counters — is bit-identical to the serial MemoMatcher for every
/// thread count and schedule.
///
/// An extension beyond the paper (which is single-threaded Java); the
/// speedup compounds with the paper's techniques since they all reduce
/// per-pair work.
class ParallelMemoMatcher final : public Matcher {
 public:
  struct Options {
    /// Used only when `pool` is null: 0 = hardware_concurrency(). A
    /// private pool is then created (and its threads spawned) per Run —
    /// prefer passing a persistent `pool`.
    size_t num_threads = 0;
    bool check_cache_first = false;
    /// Borrowed persistent pool (e.g. the DebugSession's); must outlive
    /// the matcher's runs. Overrides num_threads.
    ThreadPool* pool = nullptr;
    /// When false, each worker only drains its static equal span — the
    /// pre-work-stealing baseline, kept for benchmarking the scheduler.
    bool dynamic_schedule = true;
    /// Items per claimed chunk; 0 = auto.
    size_t grain = 0;
    /// Debug/bench hook: when set, resized to the worker count and
    /// filled with each worker's MatchStats (their sum equals the
    /// result's stats, minus elapsed_ms which is wall-clock).
    std::vector<MatchStats>* per_worker_stats = nullptr;
    /// When set, the per-worker scratch (stats + predicate-order
    /// buffers) is reserved from this budget before workers start; a
    /// denied reservation yields a clean ResourceExhausted result with
    /// zero pairs evaluated. The budget must outlive the run.
    MemoryBudget* budget = nullptr;
    /// Pairs per columnar block. 1 (the default) = the classic per-pair
    /// loop above. Any other value switches to the BlockEvaluator: each
    /// 64-aligned block of pairs becomes the work-stealing unit, one
    /// feature is evaluated across the whole block at a time, and rules
    /// combine via bitmap algebra (see src/core/block_matcher.h). 0 =
    /// auto-size (BlockMatcher::AutoBlockSize); explicit values round up
    /// to a multiple of 64. Results stay bit-identical either way;
    /// check_cache_first is ignored in block mode (block semantics are
    /// the ccf-off ordering), and cancellation is checked once per block
    /// instead of once per pair.
    size_t block_size = 1;
    /// Optional cost model for the auto block size (block mode only).
    const CostModel* cost_model = nullptr;
  };

  ParallelMemoMatcher() : ParallelMemoMatcher(Options{}) {}
  explicit ParallelMemoMatcher(Options options);

  using Matcher::Run;

  /// Cancellation/deadline: every worker checks `control` once per pair
  /// and drains cleanly; all workers quiesce before Run returns (no
  /// detached or leaked threads). On a partial result, `evaluated` is
  /// exactly the set of pairs whose evaluation completed — a union of
  /// claimed chunks, not necessarily a prefix.
  MatchResult Run(const MatchingFunction& fn, const CandidateSet& pairs,
                  PairContext& ctx, const RunControl& control) override;

  /// Runs against a caller-supplied memo whose prior contents are
  /// reused. The memo must be safe for concurrent distinct-row access
  /// (DenseMemo, ShardedMemo); a memo that is not (HashMemo) yields an
  /// InvalidArgument result with zero pairs evaluated instead of a data
  /// race.
  MatchResult RunWithMemo(const MatchingFunction& fn,
                          const CandidateSet& pairs, PairContext& ctx,
                          Memo& memo,
                          const RunControl& control = RunControl());

  /// Parallel equivalent of MemoMatcher::RunWithState: reuses `state`'s
  /// memo and records the per-rule true / per-predicate false bitmaps
  /// the incremental engine needs. Decision bitmaps are pre-materialized
  /// serially, then written by workers at their own pair bits only
  /// (64-aligned chunks: no shared words). Output state is identical to
  /// the serial matcher's.
  MatchResult RunWithState(const MatchingFunction& fn,
                           const CandidateSet& pairs, PairContext& ctx,
                           MatchState& state,
                           const RunControl& control = RunControl());

  const char* name() const override { return "DM+EE(parallel)"; }

 private:
  MatchResult RunImpl(const MatchingFunction& fn, const CandidateSet& pairs,
                      PairContext& ctx, MatchState* state, Memo& memo,
                      const RunControl& control);

  /// Block-mode body of RunImpl (Options::block_size != 1): blocks are
  /// the scheduling unit; each worker owns a BlockEvaluator::Scratch.
  MatchResult RunBlocks(const MatchingFunction& fn,
                        const CandidateSet& pairs, PairContext& ctx,
                        MatchState* state, Memo& memo,
                        const RunControl& control, ThreadPool& pool,
                        const Stopwatch& timer);

  /// The configured pool, creating a private one on first use if none
  /// was supplied.
  ThreadPool& pool();

  Options options_;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_PARALLEL_MATCHER_H_
