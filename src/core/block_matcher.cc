#include "src/core/block_matcher.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/bitmap.h"
#include "src/util/stopwatch.h"

namespace emdbg {

namespace {

/// Lanes per word above which the threshold compare switches from a
/// sparse bit-walk to a branchless dense sweep of all 64 lanes. The
/// dense sweep costs ~64 compares regardless of occupancy; the walk
/// costs a few ns per set bit — they cross around a quarter-full word.
constexpr int kDenseLanes = 16;

template <typename Cmp>
void PassMaskImpl(const float* col, const uint64_t* active, size_t nb,
                  Cmp cmp, uint64_t* pass) {
  const size_t words = bitspan::Words(nb);
  for (size_t wi = 0; wi < words; ++wi) {
    uint64_t a = active[wi];
    if (a == 0) {
      pass[wi] = 0;
      continue;
    }
    uint64_t bits = 0;
    if (std::popcount(a) >= kDenseLanes) {
      const size_t lanes = std::min<size_t>(64, nb - wi * 64);
      const float* c = col + wi * 64;
      if (lanes == 64) {
        // Two-phase sweep: the byte compares vectorize, then the bytes
        // pack into one word.
        uint8_t lane_pass[64];
        for (size_t j = 0; j < 64; ++j) lane_pass[j] = cmp(c[j]) ? 1 : 0;
        bits = bitspan::PackBytes64(lane_pass);
      } else {
        for (size_t j = 0; j < lanes; ++j) {
          bits |= static_cast<uint64_t>(cmp(c[j])) << j;
        }
      }
      bits &= a;
    } else {
      while (a != 0) {
        const size_t j = static_cast<size_t>(std::countr_zero(a));
        a &= a - 1;
        if (cmp(col[wi * 64 + j])) bits |= uint64_t{1} << j;
      }
    }
    pass[wi] = bits;
  }
}

/// pass = active ∩ { lanes whose score passes (op, threshold) }. The
/// comparison widens each float lane to double, exactly like
/// Predicate::Test on a memo Lookup, so threshold-boundary decisions
/// cannot depend on the evaluation strategy. Inactive lanes may hold
/// NaN (absent); every comparison is false on NaN and the result is
/// masked by `active` anyway.
void PassMask(const float* col, const uint64_t* active, size_t nb,
              CompareOp op, double threshold, uint64_t* pass) {
  switch (op) {
    case CompareOp::kGe:
      PassMaskImpl(col, active, nb,
                   [threshold](float v) {
                     return static_cast<double>(v) >= threshold;
                   },
                   pass);
      return;
    case CompareOp::kGt:
      PassMaskImpl(col, active, nb,
                   [threshold](float v) {
                     return static_cast<double>(v) > threshold;
                   },
                   pass);
      return;
    case CompareOp::kLt:
      PassMaskImpl(col, active, nb,
                   [threshold](float v) {
                     return static_cast<double>(v) < threshold;
                   },
                   pass);
      return;
    case CompareOp::kLe:
      PassMaskImpl(col, active, nb,
                   [threshold](float v) {
                     return static_cast<double>(v) <= threshold;
                   },
                   pass);
      return;
  }
}

}  // namespace

BlockEvaluator::BlockEvaluator(const MatchingFunction& fn,
                               const CandidateSet& pairs, PairContext& ctx,
                               DenseMemo* memo, MatchState* state,
                               size_t block_size)
    : pairs_(pairs),
      ctx_(ctx),
      memo_(memo),
      num_pairs_(pairs.size()),
      block_size_(std::max<size_t>(64, (block_size + 63) / 64 * 64)),
      words_(block_size_ / 64) {
  std::vector<int> slot_of(ctx.catalog().size(), -1);
  for (const Rule& rule : fn.rules()) {
    if (rule.empty()) continue;  // an empty conjunction matches nothing
    RuleSlot rs;
    rs.rule_true = state != nullptr ? &state->RuleTrue(rule.id()) : nullptr;
    for (const Predicate& p : rule.predicates()) {
      int& slot = slot_of[p.feature];
      if (slot < 0) {
        slot = static_cast<int>(slot_features_.size());
        slot_features_.push_back(p.feature);
      }
      rs.preds.push_back(
          PredSlot{static_cast<uint32_t>(slot), p.feature, p.op, p.threshold,
                   state != nullptr ? &state->PredFalse(p.id) : nullptr});
    }
    rules_.push_back(std::move(rs));
  }
}

size_t BlockEvaluator::ScratchBytes() const {
  const size_t slots = slot_features_.size();
  return slots * block_size_ * sizeof(float) +
         (2 * slots * words_ + 4 * words_) * sizeof(uint64_t) + slots;
}

void BlockEvaluator::InitScratch(Scratch& s) const {
  const size_t slots = slot_features_.size();
  s.cols.assign(slots * block_size_, 0.0f);
  s.bits.assign(2 * slots * words_ + 4 * words_, 0);
  s.touched.assign(slots, 0);
}

void BlockEvaluator::GatherSlot(uint32_t slot, FeatureId feature,
                                size_t base, size_t nb, Scratch& s) const {
  float* col = s.cols.data() + slot * block_size_;
  uint64_t* filled = s.bits.data() + slot * words_;
  if (memo_ != nullptr) {
    memo_->GatherColumn(base, nb, feature, col, filled);
    bitspan::Fill(
        s.bits.data() + (slot_features_.size() + slot) * words_, nb, false);
  } else {
    // Memo-less mode: every lane starts absent.
    std::fill(col, col + nb, std::numeric_limits<float>::quiet_NaN());
    bitspan::Fill(filled, nb, false);
  }
  s.touched[slot] = 1;
}

void BlockEvaluator::EvalBlock(size_t b, Bitmap& matches, MatchStats& stats,
                               Scratch& s) const {
  const size_t base = b * block_size_;
  const size_t nb = std::min(block_size_, num_pairs_ - base);
  const size_t nw = bitspan::Words(nb);
  const size_t slots = slot_features_.size();
  uint64_t* filled_base = s.bits.data();
  uint64_t* dirty_base = filled_base + slots * words_;
  uint64_t* undecided = dirty_base + slots * words_;
  uint64_t* active = undecided + words_;
  uint64_t* pass = active + words_;
  uint64_t* tmp = pass + words_;

  std::fill(s.touched.begin(), s.touched.end(), 0);
  bitspan::Fill(undecided, nb, true);

  for (const RuleSlot& rule : rules_) {
    const size_t live = bitspan::Count(undecided, nb);
    if (live == 0) break;  // block-granularity early exit: all decided
    stats.rule_evaluations += live;
    std::copy(undecided, undecided + nw, active);

    for (const PredSlot& p : rule.preds) {
      const size_t entering = bitspan::Count(active, nb);
      if (entering == 0) break;  // the whole block failed earlier preds
      stats.predicate_evaluations += entering;

      if (s.touched[p.slot] == 0) GatherSlot(p.slot, p.feature, base, nb, s);
      uint64_t* filled = filled_base + p.slot * words_;
      float* col = s.cols.data() + p.slot * block_size_;

      stats.memo_hits += bitspan::CountAnd(active, filled, nb);
      // need = active & ~filled: exactly the lanes the serial matcher
      // would compute (then batch-computed with hoisted resolution).
      bool any_need = false;
      for (size_t wi = 0; wi < nw; ++wi) {
        tmp[wi] = active[wi] & ~filled[wi];
        any_need = any_need || tmp[wi] != 0;
      }
      if (any_need) {
        ctx_.ComputeFeatureBlock(p.feature, pairs_.pairs().data() + base,
                                 nb, tmp, col);
        stats.feature_computations += bitspan::Count(tmp, nb);
        bitspan::Or(filled, tmp, nb);
        if (memo_ != nullptr) {
          bitspan::Or(dirty_base + p.slot * words_, tmp, nb);
        }
      }

      PassMask(col, active, nb, p.op, p.threshold, pass);
      if (p.pred_false != nullptr) {
        // Lanes failing here are exactly the pairs whose serial run sets
        // this predicate's false bit (their first failing predicate —
        // they leave `active` now and never reach a later one).
        for (size_t wi = 0; wi < nw; ++wi) {
          tmp[wi] = active[wi] & ~pass[wi];
        }
        p.pred_false->OrSpan(base, tmp, nb);
      }
      bitspan::And(active, pass, nb);
    }

    if (bitspan::Any(active, nb)) {
      matches.OrSpan(base, active, nb);
      if (rule.rule_true != nullptr) rule.rule_true->OrSpan(base, active, nb);
      bitspan::AndNot(undecided, active, nb);
    }
  }

  // Bulk-scatter every column this block computed back into the memo —
  // one contiguous FillSpan per touched feature instead of a virtual
  // Store per (pair, feature).
  if (memo_ != nullptr) {
    for (uint32_t slot = 0; slot < slots; ++slot) {
      if (s.touched[slot] == 0) continue;
      const uint64_t* dirty = dirty_base + slot * words_;
      if (!bitspan::Any(dirty, nb)) continue;
      memo_->FillSpan(base, nb, slot_features_[slot],
                      s.cols.data() + slot * block_size_, dirty);
    }
  }
}

MatchResult BlockMatcher::Run(const MatchingFunction& fn,
                              const CandidateSet& pairs, PairContext& ctx,
                              const RunControl& control) {
  return RunImpl(fn, pairs, ctx, nullptr, nullptr, control);
}

MatchResult BlockMatcher::RunWithMemo(const MatchingFunction& fn,
                                      const CandidateSet& pairs,
                                      PairContext& ctx, DenseMemo& memo,
                                      const RunControl& control) {
  return RunImpl(fn, pairs, ctx, nullptr, &memo, control);
}

MatchResult BlockMatcher::RunWithState(const MatchingFunction& fn,
                                       const CandidateSet& pairs,
                                       PairContext& ctx, MatchState& state,
                                       const RunControl& control) {
  const bool reuse =
      state.initialized() && state.num_pairs() == pairs.size();
  Status cap = state.EnsureCapacity(pairs.size(), ctx.catalog().size());
  if (!cap.ok()) {
    MatchResult denied;
    denied.matches = Bitmap(pairs.size());
    denied.evaluated = Bitmap(pairs.size());
    denied.partial = true;
    denied.pairs_completed = 0;
    denied.status = cap;
    return denied;
  }
  if (reuse) state.matches().Fill(false);
  // Materialize one bitmap per rule and per predicate before evaluation
  // (same serial phase as the other matchers; the evaluator then only
  // ORs word spans into them).
  for (const Rule& r : fn.rules()) {
    state.RuleTrue(r.id()).Fill(false);
    for (const Predicate& p : r.predicates()) {
      state.PredFalse(p.id).Fill(false);
    }
  }
  MatchResult result =
      RunImpl(fn, pairs, ctx, &state, &state.memo(), control);
  state.matches() = result.matches;
  return result;
}

size_t BlockMatcher::AutoBlockSize(const MatchingFunction& fn,
                                   const CostModel* model) {
  // Fit the block's score columns (one float span per used feature) in
  // half of a ~256 KB L2, leaving the other half for the memo column
  // spans they are gathered from and scattered back to — the same
  // 4 bytes per lane per used feature, read once by the gather and
  // written by FillSpan while still cached.
  constexpr size_t kColumnBudgetBytes = 128 * 1024;
  const size_t nf = std::max<size_t>(1, fn.UsedFeatures().size());
  size_t b = kColumnBudgetBytes / (nf * sizeof(float));
  if (model != nullptr) {
    double total_us = 0.0;
    size_t measured = 0;
    for (const FeatureId f : fn.UsedFeatures()) {
      total_us += model->FeatureCost(f);
      ++measured;
    }
    const double avg_us = measured > 0 ? total_us / measured : 0.0;
    if (avg_us > 10.0) {
      b = std::min<size_t>(b, 512);  // compute-bound: favor cancellation
    } else if (avg_us < 0.5) {
      b = std::max<size_t>(b, 1024);  // orchestration-bound: amortize
    }
  }
  b = std::clamp<size_t>(b, 256, 4096);
  return b / 64 * 64;
}

size_t BlockMatcher::ResolveBlockSize(const Options& options,
                                      const MatchingFunction& fn) {
  if (options.block_size == 0) {
    return AutoBlockSize(fn, options.cost_model);
  }
  return std::max<size_t>(64, (options.block_size + 63) / 64 * 64);
}

MatchResult BlockMatcher::RunImpl(const MatchingFunction& fn,
                                  const CandidateSet& pairs,
                                  PairContext& ctx, MatchState* state,
                                  DenseMemo* memo, const RunControl& control) {
  Stopwatch timer;
  MatchResult result;
  result.matches = Bitmap(pairs.size());
  result.MarkComplete(pairs.size());
  const auto refuse = [&](Status status) {
    result.evaluated = Bitmap(pairs.size());
    result.partial = true;
    result.pairs_completed = 0;
    result.status = std::move(status);
    return result;
  };

  ThreadPool* pool = options_.pool != nullptr &&
                             options_.pool->num_workers() > 1
                         ? options_.pool
                         : nullptr;
  const size_t workers = pool != nullptr ? pool->num_workers() : 1;
  BlockEvaluator eval(fn, pairs, ctx, memo, state,
                      ResolveBlockSize(options_, fn));
  const size_t block = eval.block_size();
  struct alignas(64) Worker {
    MatchStats stats;
    BlockEvaluator::Scratch scratch;
  };
  // Block scratch (feature columns + masks) dominates per-worker memory,
  // so reserve the real figure for every worker before any starts.
  const size_t scratch_need = workers * (sizeof(Worker) + eval.ScratchBytes());
  Result<MemoryReservation> scratch_bytes =
      MemoryReservation::Make(options_.budget, scratch_need, "block.scratch");
  if (!scratch_bytes.ok() && ctx.DropIdCaches() > 0) {
    // The run cannot go without its scratch, but it can without the
    // context's id caches: those rebuild in what the scratch leaves, or
    // their features re-tokenize per call with identical values.
    scratch_bytes =
        MemoryReservation::Make(options_.budget, scratch_need, "block.scratch");
  }
  if (!scratch_bytes.ok()) return refuse(scratch_bytes.status());
  // Workers only read shared context state: build every column the
  // features read before they start.
  if (pool != nullptr) ctx.Prewarm(fn.UsedFeatures(), pool);
  std::vector<Worker> worker_state(workers);
  for (Worker& ws : worker_state) eval.InitScratch(ws.scratch);

  if (pool == nullptr) {
    // A block is hundreds of pairs: read the deadline clock at every one.
    StopCheck stop(control, /*deadline_stride=*/1);
    for (size_t b = 0; b < eval.num_blocks(); ++b) {
      // A stopped run's evaluated prefix ends on a block boundary.
      if (stop.ShouldStop()) {
        result.MarkPartialPrefix(b * block, pairs.size(), stop.Reason());
        break;
      }
      eval.EvalBlock(b, result.matches, worker_state[0].stats,
                     worker_state[0].scratch);
    }
  } else {
    // One item = one block. Blocks own disjoint 64-aligned pair ranges
    // (disjoint bitmap words and memo rows), so the pool's chunk
    // alignment drops to 1 and small block counts still spread across
    // all workers.
    const ThreadPool::ForResult run = pool->ParallelFor(
        eval.num_blocks(), control,
        [&](size_t w, size_t b) {
          eval.EvalBlock(b, result.matches, worker_state[w].stats,
                         worker_state[w].scratch);
        },
        ThreadPool::ForOptions{.steal = options_.dynamic_schedule,
                               .align = 1});
    if (run.stopped) {
      // Block b covers pairs [b*B, min((b+1)*B, n)).
      result.partial = true;
      result.status = run.status;
      result.evaluated = Bitmap(pairs.size());
      result.pairs_completed = 0;
      for (const auto& [begin, end] : run.completed) {
        const size_t pair_begin = begin * block;
        const size_t pair_end = std::min(end * block, pairs.size());
        result.pairs_completed += pair_end - pair_begin;
        for (size_t i = pair_begin; i < pair_end; ++i) {
          result.evaluated.Set(i);
        }
      }
    }
  }
  for (const Worker& ws : worker_state) result.stats += ws.stats;
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace emdbg
