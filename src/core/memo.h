#ifndef EMDBG_CORE_MEMO_H_
#define EMDBG_CORE_MEMO_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/feature.h"
#include "src/util/memory_budget.h"
#include "src/util/status.h"

namespace emdbg {

/// Storage for computed similarity values, addressed by (pair index,
/// feature id) — the paper's Γ (Sec. 4.3). Two implementations:
/// a dense matrix (the paper's 2-D array, Sec. 7.4) and a hash map
/// (the alternative it suggests for low fill rates).
class Memo {
 public:
  virtual ~Memo() = default;

  /// Retrieves a stored value; returns false if not present.
  virtual bool Lookup(size_t pair_index, FeatureId feature,
                      double* value) const = 0;

  /// Stores a computed value.
  virtual void Store(size_t pair_index, FeatureId feature, double value) = 0;

  /// True if the value is present (no value copy).
  virtual bool Contains(size_t pair_index, FeatureId feature) const = 0;

  /// Number of stored values.
  virtual size_t FilledCount() const = 0;

  /// Heap bytes used by the store.
  virtual size_t MemoryBytes() const = 0;

  /// Removes all stored values.
  virtual void Clear() = 0;

  /// Thread-safety contract: true if concurrent Store/Lookup/Contains on
  /// *different pair rows* is safe (a pooled BlockMatcher's access
  /// pattern — each candidate pair is evaluated by exactly one worker).
  /// Implementations returning false (HashMemo: a rehash moves every
  /// bucket) are rejected by a pooled BlockMatcher with a clear Status
  /// instead of racing; wrap them in a ShardedMemo to share across
  /// workers.
  virtual bool SafeForConcurrentRows() const { return false; }
};

/// Dense pairs x features float matrix with NaN as the "absent" sentinel.
/// All similarity scores are in [0, 1], so NaN is unambiguous. This is the
/// representation measured in the paper's Sec. 7.4 (22 MB for
/// 291,649 pairs x 33 features at 4 bytes each, modulo JVM overhead).
///
/// Storage is feature-major: one contiguous column of num_pairs() floats
/// per feature. The constructor allocates its columns as one buffer and
/// each GrowFeatures call appends one buffer for the columns it adds, so
/// adding a feature copies no existing value and a memo made once (a
/// batch run's) is one large allocation, not one per feature. A block's
/// column gather is one sequential read, and an edit's lanes read and
/// write one column per feature. Persistence keeps the pair-major order
/// (WriteRawValues / LoadRawValues transpose on the way out and in).
class DenseMemo final : public Memo {
 public:
  DenseMemo(size_t num_pairs, size_t num_features);

  bool Lookup(size_t pair_index, FeatureId feature,
              double* value) const override {
    const float v = cols_[feature][pair_index];
    if (std::isnan(v)) return false;
    *value = static_cast<double>(v);
    return true;
  }

  /// Thread-safety: concurrent Store/Lookup on *different pair rows* is
  /// safe (distinct cells; the fill counter is relaxed-atomic). Same-cell
  /// concurrency is not supported.
  void Store(size_t pair_index, FeatureId feature, double value) override {
    float& slot = cols_[feature][pair_index];
    if (std::isnan(slot)) {
      filled_.fetch_add(1, std::memory_order_relaxed);
    }
    slot = static_cast<float>(value);
  }

  bool Contains(size_t pair_index, FeatureId feature) const override {
    return !std::isnan(cols_[feature][pair_index]);
  }

  size_t FilledCount() const override {
    return filled_.load(std::memory_order_relaxed);
  }
  size_t MemoryBytes() const override {
    return num_pairs_ * cols_.size() * sizeof(float);
  }
  void Clear() override;

  bool SafeForConcurrentRows() const override { return true; }

  size_t num_pairs() const { return num_pairs_; }
  size_t num_features() const { return cols_.size(); }

  /// Grows the feature dimension (e.g. when the analyst's new rule uses a
  /// feature interned after the memo was created) by appending absent
  /// columns; existing columns are neither copied nor moved. No-op if
  /// `num_features` is not larger.
  void GrowFeatures(size_t num_features);

  /// Column `feature`: num_pairs() floats, NaN = absent. Valid for the
  /// memo's lifetime (GrowFeatures leaves existing columns in place).
  const float* Column(FeatureId feature) const { return cols_[feature]; }

  // ---- Columnar bulk access: the block matcher's gather/scatter over a
  // row range (src/core/block_matcher.h) and an edit's gathered lanes
  // (src/core/incremental.h). Masks are ceil(n/64) words; bits at or past
  // n are ignored. ----

  /// Gathers column `feature` for rows [row, row + n): out[i] receives
  /// the stored float (NaN when absent) and bit i of `present`
  /// (ceil(n/64) words, fully overwritten) is set iff the cell holds a
  /// value. Thread-safety matches Lookup: safe concurrently with
  /// Store/FillSpan on *other* rows.
  void GatherColumn(size_t row, size_t n, FeatureId feature, float* out,
                    uint64_t* present) const;

  /// Bulk store: for every set bit i of `mask`, stores vals[i] into cell
  /// (row + i, feature). The fill counter is bumped once with the batch's
  /// newly-filled count instead of once per cell. Thread-safety matches
  /// Store: rows [row, row + n) must not be concurrently written by
  /// another thread.
  void FillSpan(size_t row, size_t n, FeatureId feature, const float* vals,
                const uint64_t* mask);

  /// Gathered lookup over lanes: for every set bit i of `lanes`, out[i]
  /// receives cell (rows[i], feature) (other lanes of `out` may be
  /// overwritten too), and bit i of `missing` (fully overwritten) is set
  /// iff the lane is set and the cell is absent. Returns the number of
  /// set lanes whose cell holds a value.
  size_t LookupLanes(FeatureId feature, const uint32_t* rows, size_t n,
                     const uint64_t* lanes, float* out,
                     uint64_t* missing) const;

  /// Gathered store over lanes: for every set bit i of `mask`, stores
  /// vals[i] into cell (rows[i], feature), bumping the fill counter once.
  /// The rows of set lanes must be distinct.
  void StoreLanes(FeatureId feature, const uint32_t* rows, size_t n,
                  const float* vals, const uint64_t* mask);

  /// Writes every cell in pair-major order (pair 0's features, then pair
  /// 1's, ...; absent = NaN), the layout state_io persists, to `out`,
  /// which holds num_pairs() * num_features() * sizeof(float) bytes.
  void WriteRawValues(char* out) const;

  /// Restores cells from pair-major bytes in WriteRawValues' layout (the
  /// size must be pairs x features floats) and recounts the fill
  /// statistic.
  Status LoadRawValues(std::string_view pair_major);

 private:
  size_t num_pairs_;
  std::atomic<size_t> filled_{0};
  /// The constructor's buffer, then one per GrowFeatures call.
  std::vector<std::unique_ptr<float[]>> buffers_;
  std::vector<float*> cols_;  ///< column f's first value, in a buffer
};

/// Sparse hash-map memo keyed by (pair, feature). Lower memory at low fill
/// rates, higher lookup cost — the trade-off discussed in Sec. 7.4.
class HashMemo final : public Memo {
 public:
  HashMemo() = default;
  ~HashMemo() override { ReleaseBilling(); }

  bool Lookup(size_t pair_index, FeatureId feature,
              double* value) const override {
    const auto it = map_.find(Key(pair_index, feature));
    if (it == map_.end()) return false;
    *value = static_cast<double>(it->second);
    return true;
  }

  void Store(size_t pair_index, FeatureId feature, double value) override;

  bool Contains(size_t pair_index, FeatureId feature) const override {
    return map_.count(Key(pair_index, feature)) > 0;
  }

  size_t FilledCount() const override { return map_.size(); }
  size_t MemoryBytes() const override;
  void Clear() override {
    map_.clear();
    ReleaseBilling();
  }

  /// Attaches a memory budget (nullptr detaches and releases billing).
  /// Growth is billed in chunks as entries accumulate; a denied
  /// reservation drops the whole map — a memo is a cache, losing it
  /// costs recomputation, never correctness. The budget must outlive
  /// the memo.
  void SetBudget(MemoryBudget* budget);

 private:
  static uint64_t Key(size_t pair_index, FeatureId feature) {
    return (static_cast<uint64_t>(pair_index) << 32) |
           static_cast<uint64_t>(feature);
  }
  void ReleaseBilling();

  std::unordered_map<uint64_t, float> map_;
  MemoryBudget* budget_ = nullptr;
  size_t billed_bytes_ = 0;
};

/// Sparse memo safe for concurrent workers: the key space is split into
/// shards by pair index, each shard a mutex-protected hash map. Pair-row
/// striping means one worker's pairs always land in the same shards it is
/// already touching, so lock contention is limited to hash collisions of
/// the stripe function — in practice near zero for a pooled run's
/// disjoint-row access pattern. This is the low-fill-rate (Sec. 7.4)
/// alternative when a dense pairs × features matrix is too large.
class ShardedMemo final : public Memo {
 public:
  static constexpr size_t kDefaultShards = 64;

  explicit ShardedMemo(size_t num_shards = kDefaultShards);
  ~ShardedMemo() override;  // out-of-line: Shard is incomplete here

  bool Lookup(size_t pair_index, FeatureId feature,
              double* value) const override;
  void Store(size_t pair_index, FeatureId feature, double value) override;
  bool Contains(size_t pair_index, FeatureId feature) const override;
  size_t FilledCount() const override;
  size_t MemoryBytes() const override;
  void Clear() override;

  bool SafeForConcurrentRows() const override { return true; }

  size_t num_shards() const { return shards_.size(); }

  /// Attaches a memory budget (nullptr detaches and releases billing).
  /// Each shard bills its growth in chunks under its own mutex; when a
  /// reservation is denied, the memo first evicts its coldest shards
  /// (least-recently-accessed; recomputable cache, so always safe) and
  /// retries, and if the budget still refuses it drops the overflowing
  /// shard itself. Stores never fail — they just stop caching. The
  /// budget must outlive the memo.
  void SetBudget(MemoryBudget* budget);

  /// Evicts least-recently-accessed shards until at least `want` billed
  /// bytes are freed or all evictable shards are empty; returns the bytes
  /// freed. Shards whose lock is currently held (a concurrent Store) are
  /// skipped, which also makes this safe to call from within a budget
  /// reclaimer while some worker is mid-Store.
  size_t EvictColdestShards(size_t want);

  /// Evictions performed by budget pressure (self-evictions + explicit
  /// EvictColdestShards calls that freed something).
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;

  static uint64_t Key(size_t pair_index, FeatureId feature) {
    return (static_cast<uint64_t>(pair_index) << 32) |
           static_cast<uint64_t>(feature);
  }
  const Shard& ShardFor(size_t pair_index) const {
    return *shards_[pair_index & (shards_.size() - 1)];
  }
  Shard& ShardFor(size_t pair_index) {
    return *shards_[pair_index & (shards_.size() - 1)];
  }
  /// Current heap estimate of one shard's map (caller holds its mutex).
  static size_t ShardBytes(const Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  MemoryBudget* budget_ = nullptr;
  mutable std::atomic<uint64_t> access_clock_{1};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace emdbg

#endif  // EMDBG_CORE_MEMO_H_
