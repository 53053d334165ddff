#ifndef EMDBG_CORE_SHARD_DRIVER_H_
#define EMDBG_CORE_SHARD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/block/external_sort.h"
#include "src/core/cost_model.h"
#include "src/core/match_state.h"
#include "src/core/matcher.h"
#include "src/util/memory_budget.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// Shard-streaming execution: matches candidate sets whose memo footprint
/// (pairs × features × 4 bytes) exceeds RAM by cutting the pair sequence
/// into fixed-size shards and running each through the columnar block
/// engine with a shard-sized MatchState. The full memo never exists; at
/// any instant the driver holds at most two shards of state (the one
/// being evaluated and the one being spilled), so peak memory is set by
/// `Options::shard_pairs` — or derived from the MemoryBudget — not by the
/// candidate count.
///
/// Pipeline per shard: slice pairs → BlockMatcher (over the pool when one
/// is given) fills a shard MatchState →
/// match bits merge into the global bitmap at the shard's offset → the
/// state spills to `spill_dir/shard-<i>.state` (state_io v2 container,
/// CRC-checked) on a background IO thread while the next shard evaluates.
///
/// Bit-identity: shard boundaries are multiples of 64, so every output
/// bitmap word belongs to exactly one shard and merging is pure word ORs.
/// A shard's memo holds its pair range of every feature column, with no
/// cross-pair sharing, and the block
/// engine performs exactly the serial matcher's (pair, rule, predicate)
/// evaluations, so the merged match bitmap, the concatenated decision
/// bitmaps, and the summed MatchStats counters are bit-identical to one
/// monolithic MemoMatcher::RunWithState over the same pairs (elapsed_ms
/// excluded — it is wall-clock).
///
/// Cancellation stops between (or, via the inner engine, inside) shards:
/// the result is partial with `evaluated` covering completed work, like
/// every other matcher. Spill IO failures ("spill.write" fault site) and
/// budget denials surface as partial results with IoError /
/// ResourceExhausted status.
///
/// Incremental re-match: after a Run with `keep_state` (default), edits
/// that dirty a subset of pairs re-evaluate only the shards containing a
/// dirty pair. Each dirty shard's state reloads from disk with its memo
/// warm — re-evaluation is pure memo probes for unchanged features — and
/// the global match bitmap is patched in place. Clean shards are never
/// touched, so an edit's cost scales with the dirty fraction, extending
/// the paper's Sec. 6 materialization to out-of-core scale.
class ShardedMatchDriver {
 public:
  struct Options {
    /// Pairs per shard; 0 = derive from `budget` and the feature-catalog
    /// width (AutoShardPairs). Rounded up to a multiple of 64.
    size_t shard_pairs = 0;
    /// Directory for spilled shard state (must exist). Required when
    /// `keep_state` is true.
    std::string spill_dir;
    /// Accountant for shard state, scratch and spill buffers; also the
    /// default source of the auto shard size. May be null (unbudgeted).
    MemoryBudget* budget = nullptr;
    /// Borrowed pool the inner BlockMatcher spreads each shard's blocks
    /// over. Null = the caller's thread. Results are identical.
    ThreadPool* pool = nullptr;
    /// Optional cost model for the inner engine's auto block size.
    const CostModel* cost_model = nullptr;
    /// Spill each shard's MatchState for later Rematch. When false, Run
    /// keeps only the match bits and shard state is discarded as each
    /// shard completes (Rematch then recomputes from scratch).
    bool keep_state = true;
    /// Overlap shard evaluation with the previous shard's spill IO.
    bool double_buffer = true;
  };

  struct ShardInfo {
    size_t begin = 0;  ///< first pair index (inclusive)
    size_t end = 0;    ///< past-the-end pair index
    std::string state_path;  ///< spilled state; empty when not kept
  };

  explicit ShardedMatchDriver(Options options);
  /// Out-of-line: joins any in-flight spill thread (SpillJob is opaque
  /// here).
  ~ShardedMatchDriver();

  /// Matches `pairs` shard by shard. The CandidateSet itself is in RAM
  /// (8 bytes/pair); what this avoids materializing is the
  /// O(pairs × features) memo and bitmap state. See RunStream for fully
  /// streamed pairs.
  MatchResult Run(const MatchingFunction& fn, const CandidateSet& pairs,
                  PairContext& ctx, const RunControl& control = RunControl());

  /// Matches a streamed candidate sequence (an ExternalPairSorter after
  /// Finish()): pairs are pulled one shard at a time, so not even the
  /// pair list is ever whole in memory. The stream must be sorted and
  /// deduped (the sorter guarantees it) — pair position defines bitmap
  /// indexing, exactly as with a materialized CandidateSet.
  MatchResult RunStream(const MatchingFunction& fn,
                        ExternalPairSorter& stream, PairContext& ctx,
                        const RunControl& control = RunControl());

  /// Re-evaluates only the shards containing a set bit of `dirty_pairs`
  /// (sized like the last run's pair sequence), reusing their spilled
  /// memos. Requires a prior complete Run/RunStream with `keep_state`.
  /// `pairs` must be the same sequence the last run evaluated. The
  /// returned result holds the full updated match bitmap; its stats
  /// count only the re-evaluated shards' work.
  MatchResult Rematch(const MatchingFunction& fn, const CandidateSet& pairs,
                      PairContext& ctx, const Bitmap& dirty_pairs,
                      const RunControl& control = RunControl());

  /// Shard layout of the last Run/RunStream.
  const std::vector<ShardInfo>& shards() const { return shards_; }
  /// Match bitmap of the last run (kept for Rematch patching).
  const Bitmap& matches() const { return matches_; }
  /// Total bytes written to shard state files so far.
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  /// Resolved pairs-per-shard (after auto sizing; 0 before first run).
  size_t shard_pairs() const { return shard_pairs_; }

  /// Derives pairs-per-shard from a budget: the shard's memo slice plus
  /// its serialize-for-spill copy and the in-flight double-buffered shard
  /// must all fit comfortably, so the shard memo gets ~1/4 of the limit.
  /// Unbudgeted (null or unlimited) → 1<<18 pairs. Always a multiple of
  /// 64 in [64, 1<<22].
  static size_t AutoShardPairs(const MemoryBudget* budget,
                               size_t num_features);

  /// Loads the spilled state of shard `i` from the last run (differential
  /// tests, inspection). FailedPrecondition when not kept.
  Result<MatchState> LoadShardState(size_t i) const;

 private:
  struct SpillJob;

  /// Evaluates one shard and merges its results; used by all run modes.
  /// `global_offset` is the shard's first pair index. On success appends
  /// to shards_.
  Status ProcessShard(const MatchingFunction& fn,
                      std::vector<PairId> shard_pairs,
                      size_t global_offset, PairContext& ctx,
                      const RunControl& control, MatchResult* out,
                      MatchStats* stats);

  MatchResult RunShardsFromSet(const MatchingFunction& fn,
                               const CandidateSet& pairs, PairContext& ctx,
                               const RunControl& control);

  /// Waits for the in-flight spill (if any) and surfaces its status.
  Status DrainSpill();
  /// Spills `state` for shard index `shard` (synchronously or on the IO
  /// thread, per Options::double_buffer).
  Status SpillState(MatchState state, size_t shard);

  std::string ShardStatePath(size_t shard) const;

  Options options_;
  size_t shard_pairs_ = 0;
  std::vector<ShardInfo> shards_;
  Bitmap matches_;
  uint64_t spilled_bytes_ = 0;
  bool last_run_complete_ = false;

  std::unique_ptr<SpillJob> inflight_;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_SHARD_DRIVER_H_
