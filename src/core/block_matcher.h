#ifndef EMDBG_CORE_BLOCK_MATCHER_H_
#define EMDBG_CORE_BLOCK_MATCHER_H_

#include <cstdint>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/match_state.h"
#include "src/core/matcher.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// The columnar (batch-at-a-time) evaluation engine behind BlockMatcher,
/// the production full-run engine (serial or over a pool, resident or
/// sharded).
///
/// PR 3 made the similarity kernels 13–46x faster, but end-to-end
/// matching moved only 1.14–1.52x: Algorithm 4's per-pair loop now spends
/// its time on orchestration — a virtual memo probe per (pair, feature),
/// per-pair predicate dispatch, branchy rule short-circuiting — not on
/// similarity computation. This engine restructures the hot loop
/// MonetDB/X100-style, from *per pair, all features* to *per feature,
/// block of pairs*:
///
///   for each block of N pairs (N ≈ 1–4K, sized so the block's score
///   columns fit in L2):
///     undecided ← all pairs of the block
///     for each rule r (DNF order):
///       active ← undecided
///       for each predicate p of r (CNF order):
///         gather p's feature column from the memo (once per block),
///         batch-compute the missing lanes (PairContext::
///         ComputeFeatureBlock — kernel resolution hoisted out of the
///         pair loop), threshold-compare the span into a pass mask, and
///         combine: active &= pass
///       matches |= active; undecided &= ~active   // bitmap DNF
///     scatter the computed columns back to the memo (DenseMemo::
///     FillSpan), one contiguous bulk store per touched feature
///
/// Early exit survives at block granularity: a rule or predicate whose
/// `active` mask drains to zero is skipped for the rest of the block, and
/// feature computation is always masked to exactly the lanes the serial
/// matcher would have computed. That masking is what makes the result
/// **bit-identical** to the serial MemoMatcher — same match bitmap, same
/// decision bitmaps, same MatchStats counters — because the set of
/// (pair, rule, predicate) evaluations, memo probes, and feature
/// computations is the same set the per-pair loop performs, merely
/// reordered across pairs of one block (pairs are independent, Sec. 7.5).
///
/// Stats equivalence assumes the memo's contents do not change underneath
/// the run (true for DenseMemo; an evicting ShardedMemo under budget
/// pressure can shift hit counts — for such memos only the match bits are
/// guaranteed, since hit counts then depend on eviction timing).
class BlockEvaluator {
 public:
  /// Worker-local buffers: one float column + presence/dirty masks per
  /// used feature, plus the block's undecided/active/pass masks. One
  /// Scratch per worker; InitScratch sizes it.
  struct Scratch {
    std::vector<float> cols;
    std::vector<uint64_t> bits;
    std::vector<uint8_t> touched;
  };

  /// `memo` may be null: the engine then evaluates with block-local
  /// columns only (the Run() fast path — features still computed at most
  /// once per pair, O(block × features) scratch instead of an
  /// O(pairs × features) matrix). `state` may be null: decision bitmaps
  /// are then not recorded. Both must outlive the evaluator; `state`'s
  /// bitmaps must be pre-materialized by the caller (serial phase).
  /// `block_size` is rounded up to a multiple of 64 (bitmap-word
  /// alignment: two workers evaluating different blocks never share a
  /// word of any output bitmap).
  BlockEvaluator(const MatchingFunction& fn, const CandidateSet& pairs,
                 PairContext& ctx, Memo* memo, MatchState* state,
                 size_t block_size);

  size_t block_size() const { return block_size_; }
  size_t num_blocks() const {
    return (num_pairs_ + block_size_ - 1) / block_size_;
  }
  size_t num_pairs() const { return num_pairs_; }

  /// Bytes one Scratch will hold once initialized (for budget
  /// reservations before workers start).
  size_t ScratchBytes() const;

  /// Sizes `s` for this evaluator (idempotent; reuses capacity).
  void InitScratch(Scratch& s) const;

  /// Evaluates block `b` (pairs [b*block_size, min(n, (b+1)*block_size))),
  /// ORing match bits into `matches`, accumulating counters into `stats`,
  /// and recording decision bitmaps into the attached MatchState.
  /// Concurrent calls on distinct blocks with distinct Scratches are safe
  /// (distinct memo rows, distinct bitmap words).
  void EvalBlock(size_t b, Bitmap& matches, MatchStats& stats,
                 Scratch& s) const;

 private:
  struct PredSlot {
    uint32_t slot;      ///< feature column index in Scratch
    FeatureId feature;
    CompareOp op;
    double threshold;
    Bitmap* pred_false;  ///< null when no state is attached
  };
  struct RuleSlot {
    std::vector<PredSlot> preds;
    Bitmap* rule_true;  ///< null when no state is attached
  };

  /// Loads slot `slot`'s column for the block on its first use: one
  /// sequential read of the dense memo's feature column, probes of any
  /// other memo, or all lanes absent without one.
  void GatherSlot(uint32_t slot, FeatureId feature, size_t base, size_t nb,
                  Scratch& s) const;

  const CandidateSet& pairs_;
  PairContext& ctx_;
  Memo* memo_;          ///< null = block-local evaluation only
  DenseMemo* dense_;    ///< memo_ downcast when it is dense (fast path)
  size_t num_pairs_;
  size_t block_size_;   ///< multiple of 64
  size_t words_;        ///< mask words per block = block_size_ / 64
  std::vector<FeatureId> slot_features_;
  std::vector<RuleSlot> rules_;
};

/// Columnar DM+EE (Algorithm 4 over blocks — see BlockEvaluator), the one
/// production full-run engine. Results are bit-identical to MemoMatcher
/// with default options; the check-cache-first reordering (Sec. 5.4.3)
/// stays in MemoMatcher as the paper's Alg. 4 option, because bulk
/// gathers already collapse the per-probe lookup cost δ that reordering
/// exists to exploit.
///
/// Blocks run in the caller's thread, or over a borrowed work-stealing
/// pool: each 64-aligned block is one claimable item, so workers own
/// disjoint memo rows and bitmap words and write them without locking.
/// Match bits, decision bitmaps and MatchStats are the same for every
/// worker count and schedule.
///
/// Cancellation is checked once per *block* (not per pair). A stopped
/// serial run's evaluated prefix ends on a block boundary; a stopped
/// pooled run's `evaluated` is exactly the union of the completed blocks
/// (not necessarily a prefix).
class BlockMatcher final : public Matcher {
 public:
  struct Options {
    /// Pairs per block; 0 = auto (AutoBlockSize: fit the block's score
    /// columns in L2, refined by the cost model when one is supplied).
    /// Explicit values are rounded up to a multiple of 64.
    size_t block_size = 0;
    /// Optional measured cost model for the auto block size. Borrowed;
    /// may be null.
    const CostModel* cost_model = nullptr;
    /// When set, the block scratch (feature columns + masks, one set per
    /// worker) is reserved from this budget before evaluation; a denied
    /// reservation yields a clean ResourceExhausted result with zero
    /// pairs evaluated.
    MemoryBudget* budget = nullptr;
    /// Borrowed persistent pool (e.g. the DebugSession's); must outlive
    /// the matcher's runs. Null or one worker = blocks run in the
    /// caller's thread. With more workers the context is prewarmed
    /// first, so workers only read shared text state.
    ThreadPool* pool = nullptr;
    /// When false, each worker drains only its static equal span of
    /// blocks — the pre-work-stealing baseline bench_parallel measures.
    bool dynamic_schedule = true;
  };

  BlockMatcher() : BlockMatcher(Options{}) {}
  explicit BlockMatcher(Options options) : options_(options) {}

  using Matcher::Run;

  /// Runs with block-local feature columns only — no O(pairs × features)
  /// memo is allocated (the columnar equivalent of MemoMatcher::Run's
  /// private discarded memo; same stats, a fraction of the memory).
  MatchResult Run(const MatchingFunction& fn, const CandidateSet& pairs,
                  PairContext& ctx, const RunControl& control) override;

  /// Runs against a caller-supplied memo whose prior contents are reused
  /// and which receives every newly computed value (bulk scatter). Over a
  /// pool of more than one worker the memo must be safe for concurrent
  /// distinct-row access (DenseMemo, ShardedMemo); a memo that is not
  /// (HashMemo) yields an InvalidArgument result with zero pairs
  /// evaluated instead of a data race.
  MatchResult RunWithMemo(const MatchingFunction& fn,
                          const CandidateSet& pairs, PairContext& ctx,
                          Memo& memo,
                          const RunControl& control = RunControl());

  /// Columnar equivalent of MemoMatcher::RunWithState: reuses `state`'s
  /// memo and records per-rule true / per-predicate false bitmaps via
  /// word-level span ORs. Output state matches the serial matcher's.
  MatchResult RunWithState(const MatchingFunction& fn,
                           const CandidateSet& pairs, PairContext& ctx,
                           MatchState& state,
                           const RunControl& control = RunControl());

  const char* name() const override { return "DM+EE(block)"; }

  /// Cost-model-driven block-size default: fits the per-block feature
  /// columns (4 bytes × used features) into half of a ~256 KB L2,
  /// clamped to [256, 4096]. A supplied model refines the choice:
  /// expensive measured features shrink the block (compute dominates;
  /// smaller blocks tighten cancellation latency), very cheap ones grow
  /// it (orchestration dominates; amortize harder). Always a multiple
  /// of 64.
  static size_t AutoBlockSize(const MatchingFunction& fn,
                              const CostModel* model);

  /// The block size a given Options would use for `fn`.
  static size_t ResolveBlockSize(const Options& options,
                                 const MatchingFunction& fn);

 private:
  MatchResult RunImpl(const MatchingFunction& fn, const CandidateSet& pairs,
                      PairContext& ctx, MatchState* state, Memo* memo,
                      const RunControl& control);

  Options options_;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_BLOCK_MATCHER_H_
