#ifndef EMDBG_CORE_INCREMENTAL_H_
#define EMDBG_CORE_INCREMENTAL_H_

#include <vector>

#include "src/block/candidate_pairs.h"
#include "src/core/match_result.h"
#include "src/core/match_state.h"
#include "src/core/matching_function.h"
#include "src/core/pair_context.h"
#include "src/util/cancellation.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// Incremental matching engine (Sec. 6): holds the current matching
/// function and the materialized state of the last run (memo, per-rule
/// true bitmaps, per-predicate false bitmaps), and applies rule edits by
/// re-evaluating only the affected pairs:
///
///   * AddPredicate / tightening a threshold  — Algorithm 7
///   * RemovePredicate / relaxing a threshold — Algorithm 8
///   * RemoveRule                             — Algorithm 9
///   * AddRule                                — Algorithm 10
///
/// Invariants maintained across edits (verified by property tests against
/// from-scratch runs):
///   I1. matches() equals what a full run of the current function would
///       produce.
///   I2. A set bit in RuleTrue(r) means rule r is true for that pair
///       under the current function, and each matched pair has exactly
///       one responsible rule bit set.
///   I3. A set bit in PredFalse(p) means predicate p is *currently* false
///       for that pair (bits are cleared or re-checked whenever an edit
///       could make them stale), so "some predicate bit set" is a sound
///       O(1) shortcut for "rule false".
///
/// Empty rules are treated as false everywhere (matchers skip them); the
/// empty→non-empty and non-empty→empty transitions are handled as special
/// cases of add/remove predicate.
///
/// Every edit evaluates its affected pairs as *gathered lanes*: their
/// indices are collected into a dense lane list, each feature is acquired
/// across all lanes at once (memo probes, then one ComputeFeatureBlock
/// over the misses), and rules combine by mask algebra. The predicates
/// run in their written order, so bitmaps and MatchStats equal a per-pair
/// replay of Algs. 7–10 with MemoMatcher's default (check-cache-first
/// off) semantics. Full runs use BlockMatcher.
class IncrementalMatcher {
 public:
  struct Options {
    /// Borrowed persistent work-stealing pool (must outlive the
    /// matcher). When set, full runs spread their blocks over its
    /// workers, and each edit computes its missing feature lanes over
    /// them in 64-lane words; memo stores and mask algebra stay serial.
    /// Matches, decision bitmaps and MatchStats are identical to the
    /// serial path for every worker count. Null = serial.
    ThreadPool* pool = nullptr;
    /// Memory accountant for the materialized state's memo matrix and
    /// the full-run engine's per-worker scratch (null = unbudgeted).
    /// A denied reservation surfaces as ResourceExhausted from the full
    /// run or edit, with the prior state untouched. Must outlive the
    /// matcher.
    MemoryBudget* budget = nullptr;
  };

  /// `ctx` and `pairs` must outlive the matcher.
  IncrementalMatcher(PairContext& ctx, const CandidateSet& pairs)
      : IncrementalMatcher(ctx, pairs, Options{}) {}
  IncrementalMatcher(PairContext& ctx, const CandidateSet& pairs,
                     Options options);

  /// Full run of `fn` (copied in), building all materialized state. The
  /// memo persists across FullRun calls (Sec. 6 reuse), decision bitmaps
  /// are rebuilt.
  MatchStats FullRun(const MatchingFunction& fn);

  /// Controlled full run: checks `control` once per block. If the run is
  /// stopped early the result is partial (see match_result.h) and
  /// has_run() becomes false — the memo keeps everything computed so far
  /// (a later run resumes cheaply), but the decision bitmaps are
  /// incomplete, so incremental edits stay rejected until a complete
  /// FullRun succeeds.
  MatchResult FullRun(const MatchingFunction& fn,
                      const RunControl& control);

  /// Adopts previously materialized state (e.g. from LoadMatchState) for
  /// `fn` without re-running anything; subsequent edits are incremental.
  /// The state's pair count must match the candidate set, and its stable
  /// ids must belong to `fn` (they do when rules and state were saved
  /// together). InvalidArgument on a shape mismatch.
  Status Resume(const MatchingFunction& fn, MatchState state);

  bool has_run() const { return has_run_; }
  const MatchingFunction& function() const { return fn_; }
  const Bitmap& matches() const { return state_.matches(); }
  const MatchState& state() const { return state_; }
  MatchState& mutable_state() { return state_; }

  // ---- Incremental edits (each returns the work it performed). ----

  /// Algorithm 10. The rule is appended at the end of the evaluation
  /// order; only currently-unmatched pairs are evaluated against it.
  Result<MatchStats> AddRule(const Rule& rule);

  /// Algorithm 9. Pairs matched by the removed rule are re-checked
  /// against the remaining rules (with the predicate-false bitmap
  /// shortcut).
  Result<MatchStats> RemoveRule(RuleId rid);

  /// Algorithm 7. Only pairs previously matched by the rule are
  /// evaluated against the new predicate.
  Result<MatchStats> AddPredicate(RuleId rid, Predicate p);

  /// Algorithm 8 (with an always-true replacement). Only unmatched pairs
  /// that the removed predicate rejected are re-evaluated.
  Result<MatchStats> RemovePredicate(RuleId rid, PredicateId pid);

  /// Tighten or relax depending on the direction of change relative to
  /// the predicate's operator (Algorithm 7 or 8). Equal threshold is a
  /// no-op.
  Result<MatchStats> SetThreshold(RuleId rid, PredicateId pid,
                                  double threshold);

  /// Stable id assigned by the most recent successful AddRule /
  /// AddPredicate.
  RuleId last_added_rule_id() const { return last_added_rule_; }
  PredicateId last_added_predicate_id() const {
    return last_added_predicate_;
  }

 private:
  /// Grows the memo if the catalog gained features since initialization.
  /// ResourceExhausted (state untouched, edit not applied) when the
  /// attached memory budget denies the growth.
  Status SyncMemoWidth();

  /// Replaces `idx` with the index of every set bit of `bm`, walked a
  /// word at a time; with `unmatched_only`, pairs already matched are
  /// left out.
  void CollectLanes(const Bitmap& bm, bool unmatched_only,
                    std::vector<uint32_t>& idx) const;

  /// Sizes the lane buffers for `idx` and gathers its pair ids; every
  /// lane starts active.
  void GatherLanes(const std::vector<uint32_t>& idx);

  /// Memoized acquisition of feature `f` for every active lane of the
  /// gathered `idx`: one gathered memo lookup over the lanes, the misses
  /// computed in one ComputeFeatureBlock (over the pool in 64-lane words
  /// when there is one), and one gathered store of them. col_[i]
  /// receives each active lane's value.
  void AcquireFeatureGathered(FeatureId f, const std::vector<uint32_t>& idx,
                              MatchStats& stats);

  /// Evaluates rule `r` over the lanes `idx`, recording each lane's first
  /// false predicate in PredFalse and clearing the PredFalse bits of the
  /// predicates it passes (I3). Lanes where the rule is true are marked
  /// matched (+ RuleTrue) and removed from `idx`; false lanes remain.
  /// Does not count rule_evaluations — callers do.
  void EvalRuleGathered(const Rule& r, std::vector<uint32_t>& idx,
                        MatchStats& stats);

  /// Re-matches the (unmatched) lanes `idx` against the rules in order,
  /// skipping position `skip_pos`; a lane with a PredFalse bit set for
  /// some predicate of a rule skips that rule (the known-false shortcut,
  /// sound under I3). `idx` ends holding the lanes no rule matched.
  void RematchGathered(std::vector<uint32_t>& idx, size_t skip_pos,
                       MatchStats& stats);

  /// Shared tail of AddPredicate / tighten (Algorithm 7): re-check the
  /// pairs in RuleTrue(rid) against predicate `p` (already updated in
  /// fn_), and re-match the ones it now rejects.
  MatchStats RecheckMatchedPairs(RuleId rid, const Predicate& p);

  /// Shared tail of AddRule, RemovePredicate and relax (Algorithms 8 and
  /// 10): evaluate rule `rid` on the unmatched pairs of `candidates`.
  MatchStats RecheckUnmatchedPairs(RuleId rid, const Bitmap& candidates);

  /// Shared tail of RemoveRule and of removing a rule's last predicate
  /// (Algorithm 9): un-match the pairs of `affected` and re-match them
  /// against the remaining rules.
  MatchStats RematchAffected(const Bitmap& affected);

  PairContext& ctx_;
  const CandidateSet& pairs_;
  Options options_;
  MatchingFunction fn_;
  MatchState state_;
  bool has_run_ = false;
  RuleId last_added_rule_ = kInvalidRule;
  PredicateId last_added_predicate_ = kInvalidPredicate;

  // Lane buffers, reused across edits and across the rules of one edit.
  std::vector<uint32_t> lanes_;     ///< an edit's affected pair indices
  std::vector<uint32_t> eligible_;  ///< RematchGathered: rule's lanes
  std::vector<uint32_t> deferred_;  ///< RematchGathered: known false
  std::vector<const Bitmap*> known_false_;
  std::vector<PairId> gathered_;    ///< pair ids of the gathered lanes
  std::vector<float> col_;          ///< one feature's value per lane
  std::vector<uint64_t> active_;    ///< lanes still alive in the rule
  std::vector<uint64_t> need_;      ///< lanes missing from the memo
};

}  // namespace emdbg

#endif  // EMDBG_CORE_INCREMENTAL_H_
