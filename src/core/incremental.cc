#include "src/core/incremental.h"

#include <bit>
#include <vector>

#include "src/core/block_matcher.h"
#include "src/util/bitmap.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

/// Missing lanes below which a pooled feature computation is not worth
/// waking the workers: one 64-lane word cannot be split.
constexpr size_t kMinPooledLanes = 128;

}  // namespace

IncrementalMatcher::IncrementalMatcher(PairContext& ctx,
                                       const CandidateSet& pairs,
                                       Options options)
    : ctx_(ctx), pairs_(pairs), options_(options) {
  // The state is still empty, so this can only fail on an injected
  // mem.reserve fault; an unbudgeted state is the correct fallback then.
  (void)state_.AttachBudget(options_.budget);
}

MatchStats IncrementalMatcher::FullRun(const MatchingFunction& fn) {
  return FullRun(fn, RunControl()).stats;
}

MatchResult IncrementalMatcher::FullRun(const MatchingFunction& fn,
                                        const RunControl& control) {
  fn_ = fn;
  BlockMatcher matcher(BlockMatcher::Options{.budget = options_.budget,
                                             .pool = options_.pool});
  MatchResult result =
      matcher.RunWithState(fn_, pairs_, ctx_, state_, control);
  has_run_ = !result.partial;
  return result;
}

Status IncrementalMatcher::Resume(const MatchingFunction& fn,
                                  MatchState state) {
  if (!state.initialized() || state.num_pairs() != pairs_.size()) {
    return Status::InvalidArgument(
        StrFormat("state has %zu pairs, candidate set has %zu",
                  state.num_pairs(), pairs_.size()));
  }
  // Bill the adopted state's memo against the session budget before
  // committing — a quota too small for the loaded state must fail the
  // resume, not silently run unbudgeted.
  EMDBG_RETURN_IF_ERROR(state.AttachBudget(options_.budget));
  fn_ = fn;
  state_ = std::move(state);
  has_run_ = true;
  return Status::Ok();
}

Status IncrementalMatcher::SyncMemoWidth() {
  return state_.EnsureCapacity(state_.num_pairs(), ctx_.catalog().size());
}

void IncrementalMatcher::CollectLanes(const Bitmap& bm,
                                      bool unmatched_only,
                                      std::vector<uint32_t>& idx) const {
  idx.clear();
  const std::vector<uint64_t>& words = bm.words();
  const std::vector<uint64_t>& matched = state_.matches().words();
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t m = unmatched_only ? words[w] & ~matched[w] : words[w];
    while (m != 0) {
      idx.push_back(
          static_cast<uint32_t>(w * 64 + std::countr_zero(m)));
      m &= m - 1;
    }
  }
}

void IncrementalMatcher::GatherLanes(const std::vector<uint32_t>& idx) {
  const size_t n = idx.size();
  gathered_.resize(n);
  for (size_t i = 0; i < n; ++i) gathered_[i] = pairs_.pair(idx[i]);
  col_.resize(n);
  active_.resize(bitspan::Words(n));
  need_.resize(bitspan::Words(n));
  bitspan::Fill(active_.data(), n, true);
}

void IncrementalMatcher::AcquireFeatureGathered(
    FeatureId f, const std::vector<uint32_t>& idx, MatchStats& stats) {
  const size_t n = idx.size();
  const size_t words = bitspan::Words(n);
  DenseMemo& memo = state_.memo();
  stats.memo_hits += memo.LookupLanes(f, idx.data(), n, active_.data(),
                                      col_.data(), need_.data());
  const size_t missing = bitspan::Count(need_.data(), n);
  if (missing == 0) return;
  ThreadPool* pool = options_.pool;
  if (pool != nullptr && pool->num_workers() > 1 &&
      missing >= kMinPooledLanes) {
    // Workers only read the feature's shared columns: build them first.
    ctx_.Prewarm({f}, pool);
    pool->ParallelFor(
        words,
        [&](size_t, size_t w) {
          if (need_[w] == 0) return;
          const size_t base = w * 64;
          ctx_.ComputeFeatureBlock(f, gathered_.data() + base,
                                   std::min<size_t>(64, n - base),
                                   need_.data() + w, col_.data() + base);
        },
        ThreadPool::ForOptions{.align = 1});
  } else {
    ctx_.ComputeFeatureBlock(f, gathered_.data(), n, need_.data(),
                             col_.data());
  }
  memo.StoreLanes(f, idx.data(), n, col_.data(), need_.data());
  stats.feature_computations += missing;
}

void IncrementalMatcher::EvalRuleGathered(const Rule& r,
                                          std::vector<uint32_t>& idx,
                                          MatchStats& stats) {
  const size_t n = idx.size();
  if (n == 0) return;
  GatherLanes(idx);
  uint64_t* active = active_.data();
  for (const Predicate& p : r.predicates()) {
    const size_t entering = bitspan::Count(active, n);
    if (entering == 0) break;
    stats.predicate_evaluations += entering;
    AcquireFeatureGathered(p.feature, idx, stats);
    Bitmap& pf = state_.PredFalse(p.id);
    // ForEachSet reads each word before walking it, so clearing a
    // failing lane from `active` mid-walk is safe.
    bitspan::ForEachSet(active, n, [&](size_t i) {
      if (p.Test(static_cast<double>(col_[i]))) {
        pf.Clear(idx[i]);  // keep I3 tight: the predicate passes now
      } else {
        pf.Set(idx[i]);
        active[i >> 6] &= ~(uint64_t{1} << (i & 63));
      }
    });
  }

  // Surviving lanes passed every predicate: record them; compact the
  // false lanes to the front of `idx`.
  Bitmap& rule_true = state_.RuleTrue(r.id());
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if ((active[i >> 6] >> (i & 63)) & 1) {
      state_.matches().Set(idx[i]);
      rule_true.Set(idx[i]);
    } else {
      idx[kept++] = idx[i];
    }
  }
  idx.resize(kept);
}

void IncrementalMatcher::RematchGathered(std::vector<uint32_t>& idx,
                                         size_t skip_pos,
                                         MatchStats& stats) {
  for (size_t pos = 0; pos < fn_.num_rules() && !idx.empty(); ++pos) {
    if (pos == skip_pos) continue;
    const Rule& rule = fn_.rule(pos);
    if (rule.empty()) continue;
    // Known-false shortcut (I3), looked up once per rule and applied per
    // lane: short-circuited lanes skip this rule but continue to the next.
    known_false_.clear();
    for (const Predicate& p : rule.predicates()) {
      if (const Bitmap* bm = state_.FindPredFalse(p.id); bm != nullptr) {
        known_false_.push_back(bm);
      }
    }
    eligible_.clear();
    deferred_.clear();
    for (const uint32_t i : idx) {
      bool known = false;
      for (const Bitmap* bm : known_false_) {
        if (bm->Get(i)) {
          known = true;
          break;
        }
      }
      (known ? deferred_ : eligible_).push_back(i);
    }
    stats.rule_evaluations += eligible_.size();
    EvalRuleGathered(rule, eligible_, stats);
    idx.swap(eligible_);  // lanes where the rule came out false
    idx.insert(idx.end(), deferred_.begin(), deferred_.end());
  }
}

MatchStats IncrementalMatcher::RecheckMatchedPairs(RuleId rid,
                                                   const Predicate& p) {
  MatchStats stats;
  CollectLanes(state_.RuleTrue(rid), false, lanes_);
  const size_t n = lanes_.size();
  if (n == 0) return stats;
  stats.predicate_evaluations += n;
  GatherLanes(lanes_);
  AcquireFeatureGathered(p.feature, lanes_, stats);

  // Lanes the predicate now rejects leave the rule's matches; compact
  // them to the front of lanes_ for re-matching.
  Bitmap& pf = state_.PredFalse(p.id);
  Bitmap& rule_true = state_.RuleTrue(rid);
  size_t failing = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pair = lanes_[i];
    if (p.Test(static_cast<double>(col_[i]))) {
      pf.Clear(pair);  // still matched by this rule
    } else {
      pf.Set(pair);
      rule_true.Clear(pair);
      state_.matches().Clear(pair);
      lanes_[failing++] = pair;
    }
  }
  lanes_.resize(failing);
  // Algorithm 7 re-checks the rules after r; we additionally skip r
  // itself and use the known-false shortcut for the earlier rules, which
  // keeps this correct even after earlier relax edits cleared some of
  // their bitmap bits.
  RematchGathered(lanes_, fn_.FindRule(rid), stats);
  return stats;
}

MatchStats IncrementalMatcher::RecheckUnmatchedPairs(
    RuleId rid, const Bitmap& candidates) {
  MatchStats stats;
  CollectLanes(candidates, true, lanes_);
  stats.rule_evaluations += lanes_.size();
  EvalRuleGathered(*fn_.RuleById(rid), lanes_, stats);
  return stats;
}

MatchStats IncrementalMatcher::RematchAffected(const Bitmap& affected) {
  MatchStats stats;
  CollectLanes(affected, false, lanes_);
  for (const uint32_t i : lanes_) state_.matches().Clear(i);
  RematchGathered(lanes_, fn_.num_rules(), stats);
  return stats;
}

Result<MatchStats> IncrementalMatcher::AddRule(const Rule& rule) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  MatchStats stats;
  const RuleId rid = fn_.AddRule(rule);
  last_added_rule_ = rid;
  if (!fn_.RuleById(rid)->empty()) {
    // Algorithm 10: only unmatched pairs can be affected.
    stats = RecheckUnmatchedPairs(rid, Bitmap(pairs_.size(), true));
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::RemoveRule(RuleId rid) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  // Snapshot the pairs this rule was responsible for, then drop its state.
  Bitmap affected;
  if (const Bitmap* bm = state_.FindRuleTrue(rid); bm != nullptr) {
    affected = *bm;
  }
  for (const Predicate& p : rule->predicates()) {
    state_.ErasePredicate(p.id);
  }
  state_.EraseRule(rid);
  EMDBG_RETURN_IF_ERROR(fn_.RemoveRule(rid));
  // Algorithm 9: re-check the affected pairs against the remaining rules.
  MatchStats stats;
  if (!affected.empty()) stats = RematchAffected(affected);
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::AddPredicate(RuleId rid,
                                                    Predicate p) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const bool was_empty = rule->empty();
  Result<PredicateId> pid = fn_.AddPredicate(rid, p);
  if (!pid.ok()) return pid.status();
  last_added_predicate_ = *pid;
  MatchStats stats;
  if (was_empty) {
    // Empty rules are false everywhere, so this transition can only add
    // matches: evaluate like a newly added rule (Algorithm 10).
    stats = RecheckUnmatchedPairs(rid, Bitmap(pairs_.size(), true));
  } else {
    // Algorithm 7: adding a predicate can only shrink the rule's matches.
    Predicate added = p;
    added.id = *pid;
    stats = RecheckMatchedPairs(rid, added);
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::RemovePredicate(RuleId rid,
                                                       PredicateId pid) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  // Snapshot the pairs this predicate rejected before dropping its state.
  Bitmap rejected(pairs_.size());
  if (const Bitmap* bm = state_.FindPredFalse(pid); bm != nullptr) {
    rejected = *bm;
  }
  EMDBG_RETURN_IF_ERROR(fn_.RemovePredicate(rid, pid));
  state_.ErasePredicate(pid);

  MatchStats stats;
  if (fn_.RuleById(rid)->empty()) {
    // The rule degenerated to empty = false everywhere: un-match the
    // pairs it was responsible for and re-match them elsewhere.
    const Bitmap affected = state_.RuleTrue(rid);
    state_.RuleTrue(rid).Fill(false);
    stats = RematchAffected(affected);
  } else {
    // Algorithm 8: only unmatched pairs that the predicate rejected can
    // become matches.
    stats = RecheckUnmatchedPairs(rid, rejected);
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::SetThreshold(RuleId rid,
                                                    PredicateId pid,
                                                    double threshold) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  Rule* rule = fn_.MutableRuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const size_t pos = rule->FindPredicate(pid);
  if (pos == rule->size()) {
    return Status::NotFound(
        StrFormat("predicate %u not found in rule %u", pid, rid));
  }
  const Predicate old = rule->predicate(pos);
  if (old.threshold == threshold) return MatchStats{};

  // A larger threshold tightens lower-bound predicates (>=, >) and
  // relaxes upper-bound ones (<, <=).
  const bool tighten = IsLowerBound(old.op) ? threshold > old.threshold
                                            : threshold < old.threshold;
  rule->mutable_predicate(pos).threshold = threshold;
  const Predicate updated = rule->predicate(pos);

  MatchStats stats;
  if (tighten) {
    // Algorithm 7 flavour: previously-false pairs stay false; only the
    // rule's matched pairs need re-checking against the new threshold.
    stats = RecheckMatchedPairs(rid, updated);
  } else {
    // Algorithm 8: pairs the predicate rejected may now pass. All of the
    // predicate's recorded false-bits are stale under the relaxed
    // threshold, so clear every one (clear = unknown is always sound for
    // I3); the unmatched rejected pairs are then re-evaluated, which
    // re-records fresh outcomes for whatever the evaluation touches.
    Bitmap rejected(pairs_.size());
    if (const Bitmap* bm = state_.FindPredFalse(pid); bm != nullptr) {
      rejected = *bm;
    }
    state_.PredFalse(pid).Fill(false);
    stats = RecheckUnmatchedPairs(rid, rejected);
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

}  // namespace emdbg
