#include "src/core/memo.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <mutex>

#include "src/util/bitmap.h"

namespace emdbg {

namespace {

constexpr float kAbsent = std::numeric_limits<float>::quiet_NaN();

/// Bit j set iff vals[j] holds a value (is not NaN), for j < lanes <= 64.
uint64_t PresentBits(const float* vals, size_t lanes) {
  uint8_t present[64] = {};
  for (size_t j = 0; j < lanes; ++j) present[j] = !std::isnan(vals[j]);
  return bitspan::PackBytes64(present);
}

}  // namespace

DenseMemo::DenseMemo(size_t num_pairs, size_t num_features)
    : num_pairs_(num_pairs) {
  GrowFeatures(num_features);
}

void DenseMemo::Clear() {
  for (float* col : cols_) std::fill(col, col + num_pairs_, kAbsent);
  filled_ = 0;
}

void DenseMemo::GrowFeatures(size_t num_features) {
  if (num_features <= cols_.size()) return;
  const size_t added = num_features - cols_.size();
  std::unique_ptr<float[]> buffer(new float[added * num_pairs_]);
  std::fill(buffer.get(), buffer.get() + added * num_pairs_, kAbsent);
  for (size_t k = 0; k < added; ++k) {
    cols_.push_back(buffer.get() + k * num_pairs_);
  }
  buffers_.push_back(std::move(buffer));
}

void DenseMemo::GatherColumn(size_t row, size_t n, FeatureId feature,
                             float* out, uint64_t* present) const {
  std::memcpy(out, cols_[feature] + row, n * sizeof(float));
  for (size_t wi = 0; wi < bitspan::Words(n); ++wi) {
    present[wi] =
        PresentBits(out + wi * 64, std::min<size_t>(64, n - wi * 64));
  }
}

void DenseMemo::FillSpan(size_t row, size_t n, FeatureId feature,
                         const float* vals, const uint64_t* mask) {
  float* cell = cols_[feature] + row;
  size_t newly_filled = 0;
  bitspan::ForEachSet(mask, n, [&](size_t i) {
    newly_filled += std::isnan(cell[i]);
    cell[i] = vals[i];
  });
  if (newly_filled > 0) {
    filled_.fetch_add(newly_filled, std::memory_order_relaxed);
  }
}

size_t DenseMemo::LookupLanes(FeatureId feature, const uint32_t* rows,
                              size_t n, const uint64_t* lanes, float* out,
                              uint64_t* missing) const {
  const float* col = cols_[feature];
  size_t hits = 0;
  for (size_t wi = 0; wi < bitspan::Words(n); ++wi) {
    const uint64_t want =
        wi + 1 == bitspan::Words(n) ? lanes[wi] & bitspan::TailMask(n)
                                    : lanes[wi];
    if (want == 0) {
      missing[wi] = 0;
      continue;
    }
    // Read every lane of a live word: a branch-free sweep beats walking
    // the set bits once a word is more than sparsely populated, and an
    // edit's lane words are mostly full.
    const size_t base = wi * 64;
    const size_t lanes_here = std::min<size_t>(64, n - base);
    for (size_t j = 0; j < lanes_here; ++j) out[base + j] = col[rows[base + j]];
    const uint64_t present = PresentBits(out + base, lanes_here);
    missing[wi] = want & ~present;
    hits += static_cast<size_t>(std::popcount(want & present));
  }
  return hits;
}

void DenseMemo::StoreLanes(FeatureId feature, const uint32_t* rows, size_t n,
                           const float* vals, const uint64_t* mask) {
  float* col = cols_[feature];
  size_t newly_filled = 0;
  bitspan::ForEachSet(mask, n, [&](size_t i) {
    float& slot = col[rows[i]];
    newly_filled += std::isnan(slot);
    slot = vals[i];
  });
  if (newly_filled > 0) {
    filled_.fetch_add(newly_filled, std::memory_order_relaxed);
  }
}

void DenseMemo::WriteRawValues(char* out) const {
  const size_t nf = cols_.size();
  for (size_t p = 0; p < num_pairs_; ++p) {
    for (size_t f = 0; f < nf; ++f, out += sizeof(float)) {
      std::memcpy(out, &cols_[f][p], sizeof(float));
    }
  }
}

Status DenseMemo::LoadRawValues(std::string_view pair_major) {
  const size_t nf = cols_.size();
  if (pair_major.size() != num_pairs_ * nf * sizeof(float)) {
    return Status::InvalidArgument("value count mismatch for memo shape");
  }
  const char* in = pair_major.data();
  size_t filled = 0;
  for (size_t p = 0; p < num_pairs_; ++p) {
    for (size_t f = 0; f < nf; ++f, in += sizeof(float)) {
      float v;
      std::memcpy(&v, in, sizeof(float));
      cols_[f][p] = v;
      filled += !std::isnan(v);
    }
  }
  filled_.store(filled, std::memory_order_relaxed);
  return Status::Ok();
}

struct ShardedMemo::Shard {
  mutable std::mutex mu;
  std::unordered_map<uint64_t, float> map;
  /// Bytes reserved from the budget for this shard (guarded by mu).
  size_t billed = 0;
  /// Recency stamp for coldest-first eviction (relaxed; approximate
  /// ordering is fine for an eviction heuristic). Mutable: Lookup is
  /// const but still counts as access.
  mutable std::atomic<uint64_t> last_access{0};
};

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Billing chunk: reservations amortize over many Stores instead of one
/// atomic round-trip per entry.
constexpr size_t kMemoBillChunk = 64 * 1024;

}  // namespace

ShardedMemo::~ShardedMemo() {
  if (budget_ == nullptr) return;
  for (auto& shard : shards_) {
    if (shard->billed > 0) budget_->Release(shard->billed);
  }
}

ShardedMemo::ShardedMemo(size_t num_shards) {
  // Power-of-two shard count makes the stripe function a mask.
  shards_.resize(RoundUpPow2(std::max<size_t>(1, num_shards)));
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

size_t ShardedMemo::ShardBytes(const Shard& shard) {
  return shard.map.size() * 48 + shard.map.bucket_count() * sizeof(void*);
}

void ShardedMemo::SetBudget(MemoryBudget* budget) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (budget_ != nullptr && shard->billed > 0) {
      budget_->Release(shard->billed);
    }
    shard->billed = 0;
  }
  budget_ = budget;
  if (budget_ == nullptr) return;
  // Bill what is already resident; denial here evicts via the normal
  // pressure path on the next Store, so best-effort is fine.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const size_t bytes = ShardBytes(*shard);
    if (bytes > 0 && budget_->Reserve(bytes, "memo.shard").ok()) {
      shard->billed = bytes;
    }
  }
}

size_t ShardedMemo::EvictColdestShards(size_t want) {
  // Snapshot (shard, recency) and walk coldest-first with try_lock: a
  // shard mid-Store (or the very shard whose Store triggered this call)
  // is skipped instead of deadlocked on.
  std::vector<std::pair<uint64_t, Shard*>> order;
  order.reserve(shards_.size());
  for (auto& shard : shards_) {
    order.emplace_back(shard->last_access.load(std::memory_order_relaxed),
                       shard.get());
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t freed = 0;
  for (const auto& [tick, shard] : order) {
    if (freed >= want) break;
    std::unique_lock<std::mutex> lock(shard->mu, std::try_to_lock);
    if (!lock.owns_lock() || shard->map.empty()) continue;
    shard->map.clear();
    std::unordered_map<uint64_t, float>().swap(shard->map);
    if (budget_ != nullptr && shard->billed > 0) {
      budget_->Release(shard->billed);
      freed += shard->billed;
      shard->billed = 0;
    }
  }
  if (freed > 0) evictions_.fetch_add(1, std::memory_order_relaxed);
  return freed;
}

bool ShardedMemo::Lookup(size_t pair_index, FeatureId feature,
                         double* value) const {
  const Shard& shard = ShardFor(pair_index);
  shard.last_access.store(access_clock_.fetch_add(1, std::memory_order_relaxed),
                          std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(Key(pair_index, feature));
  if (it == shard.map.end()) return false;
  *value = static_cast<double>(it->second);
  return true;
}

void ShardedMemo::Store(size_t pair_index, FeatureId feature,
                        double value) {
  Shard& shard = ShardFor(pair_index);
  shard.last_access.store(
      access_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map[Key(pair_index, feature)] = static_cast<float>(value);
  if (budget_ == nullptr) return;
  const size_t bytes = ShardBytes(shard);
  if (bytes <= shard.billed) return;
  const size_t want = std::max(bytes - shard.billed, kMemoBillChunk);
  if (budget_->Reserve(want, "memo.shard").ok()) {
    shard.billed += want;
    return;
  }
  // Pressure: make room by evicting colder shards (this one's mutex is
  // held, so EvictColdestShards skips it), then retry once.
  EvictColdestShards(want);
  if (budget_->Reserve(want, "memo.shard").ok()) {
    shard.billed += want;
    return;
  }
  // Still denied: this shard itself is the overflow. Drop it — the memo
  // is a cache, the values recompute on demand.
  shard.map.clear();
  std::unordered_map<uint64_t, float>().swap(shard.map);
  if (shard.billed > 0) {
    budget_->Release(shard.billed);
    shard.billed = 0;
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

bool ShardedMemo::Contains(size_t pair_index, FeatureId feature) const {
  const Shard& shard = ShardFor(pair_index);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.count(Key(pair_index, feature)) > 0;
}

size_t ShardedMemo::FilledCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

size_t ShardedMemo::MemoryBytes() const {
  size_t total = shards_.size() * sizeof(Shard);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size() * 48 +
             shard->map.bucket_count() * sizeof(void*);
  }
  return total;
}

void ShardedMemo::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    if (budget_ != nullptr && shard->billed > 0) {
      budget_->Release(shard->billed);
    }
    shard->billed = 0;
  }
}

size_t HashMemo::MemoryBytes() const {
  // Approximate: node-based unordered_map — key + value + node/bucket
  // overhead (pointer-heavy), roughly 48 bytes per entry plus the bucket
  // array. This is the "more memory per entry, fewer entries" side of the
  // Sec. 7.4 trade-off.
  return map_.size() * 48 + map_.bucket_count() * sizeof(void*);
}

void HashMemo::ReleaseBilling() {
  if (budget_ != nullptr && billed_bytes_ > 0) {
    budget_->Release(billed_bytes_);
  }
  billed_bytes_ = 0;
}

void HashMemo::SetBudget(MemoryBudget* budget) {
  ReleaseBilling();
  budget_ = budget;
  if (budget_ == nullptr) return;
  const size_t bytes = MemoryBytes();
  if (bytes > 0 && budget_->Reserve(bytes, "memo.hash").ok()) {
    billed_bytes_ = bytes;
  }
}

void HashMemo::Store(size_t pair_index, FeatureId feature, double value) {
  map_[Key(pair_index, feature)] = static_cast<float>(value);
  if (budget_ == nullptr) return;
  const size_t bytes = MemoryBytes();
  if (bytes <= billed_bytes_) return;
  const size_t want = std::max(bytes - billed_bytes_, kMemoBillChunk);
  if (budget_->Reserve(want, "memo.hash").ok()) {
    billed_bytes_ += want;
    return;
  }
  // Denied: drop the cache (recompute-on-miss keeps correctness) rather
  // than grow past the budget.
  map_.clear();
  std::unordered_map<uint64_t, float>().swap(map_);
  ReleaseBilling();
}

}  // namespace emdbg
