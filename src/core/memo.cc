#include "src/core/memo.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

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

size_t HashMemo::MemoryBytes() const {
  // Approximate: node-based unordered_map — key + value + node/bucket
  // overhead (pointer-heavy), roughly 48 bytes per entry plus the bucket
  // array. This is the "more memory per entry, fewer entries" side of the
  // Sec. 7.4 trade-off.
  return map_.size() * 48 + map_.bucket_count() * sizeof(void*);
}

}  // namespace emdbg
