#include "src/core/shard_driver.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/core/block_matcher.h"
#include "src/core/state_io.h"
#include "src/util/fault_injection.h"
#include "src/util/stopwatch.h"

namespace emdbg {

namespace {

constexpr size_t kDefaultShardPairs = size_t{1} << 18;
constexpr size_t kMaxShardPairs = size_t{1} << 22;

size_t RoundUp64(size_t n) { return (n + 63) & ~size_t{63}; }

}  // namespace

/// One in-flight spill: the shard's state (owning its budget billing)
/// plus the IO thread writing it. Joined before the next spill starts,
/// at run end, and on destruction — the driver never leaks a thread.
struct ShardedMatchDriver::SpillJob {
  MatchState state;
  std::thread thread;
  Status status;
  uint64_t bytes = 0;

  ~SpillJob() {
    if (thread.joinable()) thread.join();
  }
};

ShardedMatchDriver::ShardedMatchDriver(Options options)
    : options_(std::move(options)) {}

ShardedMatchDriver::~ShardedMatchDriver() = default;

size_t ShardedMatchDriver::AutoShardPairs(const MemoryBudget* budget,
                                          size_t num_features) {
  if (budget == nullptr || budget->unlimited()) return kDefaultShardPairs;
  // Per pair: the memo row (4 bytes × features) plus a few bitmap bits.
  const size_t per_pair = std::max<size_t>(num_features, 1) * 4 + 8;
  // The evaluating shard, the spilling shard, and the spill serialization
  // copy can coexist; caches and scratch take the rest.
  const size_t usable = budget->limit() / 4;
  size_t pairs = usable / per_pair;
  // Round DOWN to the word size: rounding up would overshoot the
  // budget-derived estimate. The 64-pair floor keeps merges word-aligned.
  pairs = std::min(std::max((pairs / 64) * 64, size_t{64}), kMaxShardPairs);
  return pairs;
}

std::string ShardedMatchDriver::ShardStatePath(size_t shard) const {
  return options_.spill_dir + "/shard-" + std::to_string(shard) + ".state";
}

Status ShardedMatchDriver::DrainSpill() {
  if (inflight_ == nullptr) return Status::Ok();
  if (inflight_->thread.joinable()) inflight_->thread.join();
  Status s = inflight_->status;
  spilled_bytes_ += inflight_->bytes;
  inflight_.reset();
  return s;
}

Status ShardedMatchDriver::SpillState(MatchState state, size_t shard) {
  const std::string path = ShardStatePath(shard);
  // One injection point covers both the sync and async paths: a denied
  // spill must fail the run cleanly, never corrupt merged results.
  if (FaultFire("spill.write")) {
    return Status::IoError("shard driver: injected spill failure for '" +
                           path + "'");
  }
  if (!options_.double_buffer) {
    EMDBG_RETURN_IF_ERROR(SaveMatchState(state, path));
    spilled_bytes_ += state.MemoryBytes();
    return Status::Ok();
  }
  EMDBG_RETURN_IF_ERROR(DrainSpill());
  auto job = std::make_unique<SpillJob>();
  job->state = std::move(state);
  SpillJob* raw = job.get();
  raw->thread = std::thread([raw, path] {
    raw->status = SaveMatchState(raw->state, path);
    raw->bytes = raw->state.MemoryBytes();
    // Free the memo (and its budget billing) as soon as the bytes are on
    // disk — don't hold a dead shard across the next one's evaluation.
    raw->state = MatchState();
  });
  inflight_ = std::move(job);
  return Status::Ok();
}

Status ShardedMatchDriver::ProcessShard(const MatchingFunction& fn,
                                        std::vector<PairId> shard_pair_vec,
                                        size_t global_offset,
                                        PairContext& ctx,
                                        const RunControl& control,
                                        MatchResult* out,
                                        MatchStats* stats) {
  const size_t n = shard_pair_vec.size();
  const size_t shard_index = shards_.size();
  CandidateSet shard_set(std::move(shard_pair_vec));

  MatchState state;
  Status attach = state.AttachBudget(options_.budget);
  if (!attach.ok()) return attach;
  Status cap = state.EnsureCapacity(n, ctx.catalog().size());
  if (!cap.ok() && options_.double_buffer && inflight_ != nullptr) {
    // The spilling shard may still hold its billing; finish the IO and
    // retry once before declaring the budget exhausted.
    EMDBG_RETURN_IF_ERROR(DrainSpill());
    cap = state.EnsureCapacity(n, ctx.catalog().size());
  }
  if (!cap.ok()) return cap;

  BlockMatcher matcher(
      BlockMatcher::Options{.cost_model = options_.cost_model,
                            .budget = options_.budget,
                            .pool = options_.pool});
  MatchResult inner = matcher.RunWithState(fn, shard_set, ctx, state, control);

  // Merge what was evaluated — even a partial shard's completed bits are
  // valid (the inner engines only set bits they fully decided).
  matches_.OrSpan(global_offset, inner.matches.words().data(), n);
  *stats += inner.stats;
  if (inner.partial) {
    out->evaluated.OrSpan(global_offset,
                          inner.evaluated.words().data(), n);
    out->partial = true;
    out->pairs_completed += inner.pairs_completed;
    out->status = inner.status;
    return Status::Ok();  // caller stops; reason travels in *out
  }
  out->pairs_completed += n;
  // Complete runs carry an empty `evaluated`; synthesize the full-shard
  // span for the (possibly partial) global result.
  Bitmap ones(n, true);
  out->evaluated.OrSpan(global_offset, ones.words().data(), n);

  ShardInfo info;
  info.begin = global_offset;
  info.end = global_offset + n;
  if (options_.keep_state) {
    info.state_path = ShardStatePath(shard_index);
    EMDBG_RETURN_IF_ERROR(SpillState(std::move(state), shard_index));
  }
  shards_.push_back(std::move(info));
  return Status::Ok();
}

MatchResult ShardedMatchDriver::Run(const MatchingFunction& fn,
                                    const CandidateSet& pairs,
                                    PairContext& ctx,
                                    const RunControl& control) {
  return RunShardsFromSet(fn, pairs, ctx, control);
}

MatchResult ShardedMatchDriver::RunShardsFromSet(const MatchingFunction& fn,
                                                 const CandidateSet& pairs,
                                                 PairContext& ctx,
                                                 const RunControl& control) {
  Stopwatch watch;
  shards_.clear();
  last_run_complete_ = false;
  shard_pairs_ = options_.shard_pairs != 0
                     ? RoundUp64(options_.shard_pairs)
                     : AutoShardPairs(options_.budget, ctx.catalog().size());
  const size_t n = pairs.size();
  matches_ = Bitmap(n);
  MatchResult out;
  out.evaluated = Bitmap(n);
  MatchStats stats;

  Status s = Status::Ok();
  for (size_t base = 0; base < n && s.ok(); base += shard_pairs_) {
    const size_t end = std::min(n, base + shard_pairs_);
    std::vector<PairId> shard(pairs.pairs().begin() + base,
                              pairs.pairs().begin() + end);
    s = ProcessShard(fn, std::move(shard), base, ctx, control, &out, &stats);
    if (out.partial) break;
  }
  Status drained = DrainSpill();
  if (s.ok()) s = drained;

  out.matches = matches_;
  out.stats = stats;
  out.stats.elapsed_ms = watch.ElapsedMillis();
  if (!s.ok()) {
    out.partial = true;
    out.status = s;
  } else if (!out.partial) {
    out.MarkComplete(n);
    out.evaluated = Bitmap();
    last_run_complete_ = true;
  }
  return out;
}

MatchResult ShardedMatchDriver::RunStream(const MatchingFunction& fn,
                                          ExternalPairSorter& stream,
                                          PairContext& ctx,
                                          const RunControl& control) {
  Stopwatch watch;
  shards_.clear();
  last_run_complete_ = false;
  shard_pairs_ = options_.shard_pairs != 0
                     ? RoundUp64(options_.shard_pairs)
                     : AutoShardPairs(options_.budget, ctx.catalog().size());
  matches_ = Bitmap(0);
  MatchResult out;
  MatchStats stats;

  Status s = Status::Ok();
  size_t base = 0;
  while (s.ok()) {
    std::vector<PairId> shard;
    shard.reserve(std::min(shard_pairs_, size_t{1} << 16));
    Result<size_t> pulled = stream.NextBatch(shard_pairs_, &shard);
    if (!pulled.ok()) {
      s = pulled.status();
      break;
    }
    if (*pulled == 0) break;
    matches_.Resize(base + shard.size());
    out.evaluated.Resize(base + shard.size());
    s = ProcessShard(fn, std::move(shard), base, ctx, control, &out,
                     &stats);
    base = matches_.size();
    if (out.partial) break;
  }
  Status drained = DrainSpill();
  if (s.ok()) s = drained;

  out.matches = matches_;
  out.stats = stats;
  out.stats.elapsed_ms = watch.ElapsedMillis();
  if (!s.ok()) {
    out.partial = true;
    out.status = s;
  } else if (!out.partial) {
    out.MarkComplete(matches_.size());
    out.evaluated = Bitmap();
    last_run_complete_ = true;
  }
  return out;
}

MatchResult ShardedMatchDriver::Rematch(const MatchingFunction& fn,
                                        const CandidateSet& pairs,
                                        PairContext& ctx,
                                        const Bitmap& dirty_pairs,
                                        const RunControl& control) {
  Stopwatch watch;
  MatchResult out;
  auto fail = [&](Status s) {
    out.partial = true;
    out.status = std::move(s);
    return out;
  };
  if (!last_run_complete_ || !options_.keep_state) {
    return fail(Status::FailedPrecondition(
        "shard driver: Rematch needs a prior complete run with keep_state"));
  }
  if (pairs.size() != matches_.size()) {
    return fail(Status::InvalidArgument(
        "shard driver: Rematch pair sequence does not match the last run (" +
        std::to_string(pairs.size()) + " vs " +
        std::to_string(matches_.size()) + " pairs)"));
  }
  MatchStats stats;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardInfo& info = shards_[i];
    // Skip shards with no dirty pair: their spilled state and their
    // merged bits are still exact.
    size_t next_dirty = dirty_pairs.FindNext(info.begin);
    if (next_dirty >= info.end) continue;
    if (control.cancelled() || control.deadline_expired()) {
      return fail(control.StopStatus());
    }

    Result<MatchState> loaded = LoadMatchState(info.state_path);
    if (!loaded.ok()) return fail(loaded.status());
    MatchState state = std::move(*loaded);
    Status attach = state.AttachBudget(options_.budget);
    if (!attach.ok()) return fail(attach);

    const size_t n = info.end - info.begin;
    std::vector<PairId> shard(pairs.pairs().begin() + info.begin,
                              pairs.pairs().begin() + info.end);
    CandidateSet shard_set(std::move(shard));

    BlockMatcher matcher(
        BlockMatcher::Options{.cost_model = options_.cost_model,
                              .budget = options_.budget,
                              .pool = options_.pool});
    MatchResult inner =
        matcher.RunWithState(fn, shard_set, ctx, state, control);
    if (inner.partial) return fail(inner.status);
    stats += inner.stats;

    // Patch the shard's span: overwrite, not OR — the edit may have
    // turned matches off.
    Bitmap ones(n, true);
    matches_.AndNotSpan(info.begin, ones.words().data(), n);
    matches_.OrSpan(info.begin, inner.matches.words().data(), n);

    Status spilled = SpillState(std::move(state), i);
    if (!spilled.ok()) return fail(spilled);
  }
  Status drained = DrainSpill();
  if (!drained.ok()) return fail(drained);
  out.matches = matches_;
  out.stats = stats;
  out.stats.elapsed_ms = watch.ElapsedMillis();
  out.MarkComplete(matches_.size());
  return out;
}

Result<MatchState> ShardedMatchDriver::LoadShardState(size_t i) const {
  if (i >= shards_.size() || shards_[i].state_path.empty()) {
    return Status::FailedPrecondition(
        "shard driver: no spilled state for shard " + std::to_string(i));
  }
  return LoadMatchState(shards_[i].state_path);
}

}  // namespace emdbg
