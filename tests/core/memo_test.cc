#include "src/core/memo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/util/bitmap.h"

namespace emdbg {
namespace {

template <typename T>
class MemoTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Memo> Make() {
    if constexpr (std::is_same_v<T, DenseMemo>) {
      return std::make_unique<DenseMemo>(100, 8);
    } else {
      return std::make_unique<HashMemo>();
    }
  }
};

using MemoTypes = ::testing::Types<DenseMemo, HashMemo>;
TYPED_TEST_SUITE(MemoTest, MemoTypes);

TYPED_TEST(MemoTest, StartsEmpty) {
  auto memo = TestFixture::Make();
  EXPECT_EQ(memo->FilledCount(), 0u);
  double v = 0.0;
  EXPECT_FALSE(memo->Lookup(0, 0, &v));
  EXPECT_FALSE(memo->Contains(5, 3));
}

TYPED_TEST(MemoTest, StoreAndLookup) {
  auto memo = TestFixture::Make();
  memo->Store(7, 2, 0.75);
  double v = 0.0;
  EXPECT_TRUE(memo->Lookup(7, 2, &v));
  EXPECT_NEAR(v, 0.75, 1e-6);
  EXPECT_TRUE(memo->Contains(7, 2));
  EXPECT_FALSE(memo->Contains(7, 3));
  EXPECT_EQ(memo->FilledCount(), 1u);
}

TYPED_TEST(MemoTest, OverwriteKeepsCount) {
  auto memo = TestFixture::Make();
  memo->Store(1, 1, 0.25);
  memo->Store(1, 1, 0.5);
  EXPECT_EQ(memo->FilledCount(), 1u);
  double v = 0.0;
  EXPECT_TRUE(memo->Lookup(1, 1, &v));
  EXPECT_NEAR(v, 0.5, 1e-6);
}

TYPED_TEST(MemoTest, ZeroAndOneAreStorable) {
  auto memo = TestFixture::Make();
  memo->Store(0, 0, 0.0);
  memo->Store(0, 1, 1.0);
  double v = -1.0;
  EXPECT_TRUE(memo->Lookup(0, 0, &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(memo->Lookup(0, 1, &v));
  EXPECT_DOUBLE_EQ(v, 1.0);
}

TYPED_TEST(MemoTest, ClearResets) {
  auto memo = TestFixture::Make();
  memo->Store(3, 3, 0.3);
  memo->Clear();
  EXPECT_EQ(memo->FilledCount(), 0u);
  EXPECT_FALSE(memo->Contains(3, 3));
}

TYPED_TEST(MemoTest, MemoryBytesNonZeroAfterStore) {
  auto memo = TestFixture::Make();
  memo->Store(0, 0, 0.5);
  EXPECT_GT(memo->MemoryBytes(), 0u);
}

TEST(DenseMemoTest, MemoryIsPairsTimesFeaturesFloats) {
  DenseMemo memo(1000, 33);
  EXPECT_EQ(memo.MemoryBytes(), 1000u * 33u * sizeof(float));
}

TEST(DenseMemoTest, Table74Memory) {
  // The paper's Sec. 7.4: 291,649 pairs x 33 features of floats ≈ 22 MB
  // in Java (which includes array bookkeeping); the raw payload is ~38 MB
  // at 4 bytes — our dense memo should land in the tens of MB, not GB.
  DenseMemo memo(291649, 33);
  const double mb =
      static_cast<double>(memo.MemoryBytes()) / (1024.0 * 1024.0);
  EXPECT_GT(mb, 20.0);
  EXPECT_LT(mb, 60.0);
}

TEST(DenseMemoTest, GrowFeaturesPreservesValues) {
  DenseMemo memo(10, 2);
  memo.Store(3, 1, 0.9);
  memo.Store(9, 0, 0.1);
  memo.GrowFeatures(5);
  EXPECT_EQ(memo.num_features(), 5u);
  double v = 0.0;
  EXPECT_TRUE(memo.Lookup(3, 1, &v));
  EXPECT_NEAR(v, 0.9, 1e-6);
  EXPECT_TRUE(memo.Lookup(9, 0, &v));
  EXPECT_NEAR(v, 0.1, 1e-6);
  EXPECT_FALSE(memo.Contains(3, 4));
  memo.Store(3, 4, 0.4);
  EXPECT_TRUE(memo.Contains(3, 4));
  // Shrinking is a no-op.
  memo.GrowFeatures(2);
  EXPECT_EQ(memo.num_features(), 5u);
}

TEST(HashMemoTest, SparseUsesLessMemoryThanDenseAtLowFill) {
  DenseMemo dense(100000, 33);
  HashMemo sparse;
  for (size_t i = 0; i < 1000; ++i) sparse.Store(i * 97 % 100000, i % 33, 0.5);
  EXPECT_LT(sparse.MemoryBytes(), dense.MemoryBytes());
}

TEST(DenseMemoTest, GatherColumnReportsPresenceAndValues) {
  DenseMemo memo(200, 3);
  for (size_t i = 0; i < 200; i += 3) {
    memo.Store(i, 1, static_cast<double>(i) / 256.0);
  }
  // Gather a 70-row window starting mid-matrix (off-word-boundary length).
  const size_t row = 64, n = 70;
  std::vector<float> col(n);
  std::vector<uint64_t> present(bitspan::Words(n), ~uint64_t{0});
  memo.GatherColumn(row, n, 1, col.data(), present.data());
  for (size_t i = 0; i < n; ++i) {
    const bool expect = (row + i) % 3 == 0;
    EXPECT_EQ((present[i >> 6] >> (i & 63)) & 1u, expect ? 1u : 0u) << i;
    if (expect) {
      EXPECT_EQ(col[i], static_cast<float>((row + i) / 256.0)) << i;
    } else {
      EXPECT_TRUE(std::isnan(col[i])) << i;
    }
  }
  EXPECT_EQ(present.back() & ~bitspan::TailMask(n), 0u);
}

TEST(DenseMemoTest, FillSpanStoresMaskedCellsAndCountsNewFills) {
  DenseMemo memo(128, 2);
  memo.Store(65, 0, 0.25);  // pre-filled cell inside the span
  std::vector<float> vals(100);
  std::vector<uint64_t> mask(bitspan::Words(100), 0);
  size_t masked = 0;
  for (size_t i = 0; i < 100; i += 2) {
    vals[i] = static_cast<float>(i) / 128.0f;
    mask[i >> 6] |= uint64_t{1} << (i & 63);
    ++masked;
  }
  memo.FillSpan(28, 100, 0, vals.data(), mask.data());
  // 65 - 28 = 37 is odd -> not in the mask; its old value survives.
  double v = 0.0;
  EXPECT_TRUE(memo.Lookup(65, 0, &v));
  EXPECT_NEAR(v, 0.25, 1e-9);
  EXPECT_EQ(memo.FilledCount(), masked + 1);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(memo.Contains(28 + i, 0), i % 2 == 0 || 28 + i == 65) << i;
    if (i % 2 == 0) {
      EXPECT_TRUE(memo.Lookup(28 + i, 0, &v));
      EXPECT_EQ(v, static_cast<double>(vals[i])) << i;
    }
  }
  // Overwriting already-present cells must not double-count fills.
  memo.FillSpan(28, 100, 0, vals.data(), mask.data());
  EXPECT_EQ(memo.FilledCount(), masked + 1);
}

TEST(DenseMemoTest, FillSpanMasksTailWord) {
  DenseMemo memo(80, 1);
  std::vector<float> vals(65, 0.5f);
  // Poisoned mask tail: bits past n must be ignored.
  std::vector<uint64_t> mask(2, ~uint64_t{0});
  memo.FillSpan(0, 65, 0, vals.data(), mask.data());
  EXPECT_EQ(memo.FilledCount(), 65u);
  EXPECT_FALSE(memo.Contains(65, 0));
}

TEST(DenseMemoTest, ColumnSeesStoresAndLoads) {
  // Storage is feature-major: Column(f) is feature f's values in pair
  // order, NaN where absent.
  DenseMemo memo(4, 3);
  memo.Store(2, 1, 0.75);
  memo.Store(0, 1, 0.5);
  const float* col = memo.Column(1);
  EXPECT_EQ(col[0], 0.5f);
  EXPECT_TRUE(std::isnan(col[1]));
  EXPECT_EQ(col[2], 0.75f);
  EXPECT_TRUE(std::isnan(col[3]));
  for (const FeatureId f : {0u, 2u}) {
    for (size_t p = 0; p < 4; ++p) EXPECT_TRUE(std::isnan(memo.Column(f)[p]));
  }
}

TEST(DenseMemoTest, GrowFeaturesKeepsExistingColumnsInPlace) {
  // Adding a feature appends a column: the existing columns are neither
  // copied nor moved, so their values and addresses survive.
  DenseMemo memo(300, 12);
  for (FeatureId f = 0; f < 12; ++f) {
    for (size_t p = f; p < 300; p += 7) memo.Store(p, f, (p % 97) / 97.0);
  }
  std::vector<const float*> before;
  for (FeatureId f = 0; f < 12; ++f) before.push_back(memo.Column(f));
  const size_t filled = memo.FilledCount();
  memo.GrowFeatures(13);
  memo.GrowFeatures(20);
  ASSERT_EQ(memo.num_features(), 20u);
  EXPECT_EQ(memo.FilledCount(), filled);
  EXPECT_EQ(memo.MemoryBytes(), 300u * 20u * sizeof(float));
  for (FeatureId f = 0; f < 12; ++f) {
    EXPECT_EQ(memo.Column(f), before[f]) << f;
    for (size_t p = 0; p < 300; ++p) {
      double v = 0.0;
      const bool stored = p >= f && (p - f) % 7 == 0;
      ASSERT_EQ(memo.Lookup(p, f, &v), stored) << p << "," << f;
      if (stored) {
        EXPECT_EQ(static_cast<float>(v), static_cast<float>((p % 97) / 97.0));
      }
    }
  }
  for (FeatureId f = 12; f < 20; ++f) {
    for (size_t p = 0; p < 300; ++p) EXPECT_FALSE(memo.Contains(p, f));
  }
}

TEST(DenseMemoTest, LookupLanesReadsSetLanesAndReportsMissing) {
  // 130 lanes over scattered rows (three words, a 2-lane tail); the lane
  // mask's tail word is poisoned past n.
  DenseMemo memo(1000, 2);
  const size_t n = 130;
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i * 7 + 3);
  for (size_t i = 0; i < n; i += 3) memo.Store(rows[i], 1, i / 256.0);
  memo.Store(rows[5], 0, 0.5);  // another feature: must not be seen
  std::vector<uint64_t> lanes(bitspan::Words(n), 0);
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0 || i >= 64) lanes[i >> 6] |= uint64_t{1} << (i & 63);
  }
  lanes.back() |= ~bitspan::TailMask(n);
  std::vector<float> out(n, -1.0f);
  std::vector<uint64_t> missing(bitspan::Words(n), ~uint64_t{0});
  const size_t hits = memo.LookupLanes(1, rows.data(), n, lanes.data(),
                                       out.data(), missing.data());
  size_t want_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool lane = i % 2 == 0 || i >= 64;
    const bool stored = i % 3 == 0;
    want_hits += lane && stored;
    EXPECT_EQ((missing[i >> 6] >> (i & 63)) & 1u, lane && !stored ? 1u : 0u)
        << i;
    if (lane && stored) {
      EXPECT_EQ(out[i], static_cast<float>(i / 256.0)) << i;
    }
  }
  EXPECT_EQ(hits, want_hits);
  EXPECT_EQ(missing.back() & ~bitspan::TailMask(n), 0u);

  // No lane set: nothing is missing and nothing is hit.
  std::vector<uint64_t> none(bitspan::Words(n), 0);
  EXPECT_EQ(memo.LookupLanes(1, rows.data(), n, none.data(), out.data(),
                             missing.data()),
            0u);
  for (const uint64_t w : missing) EXPECT_EQ(w, 0u);
}

TEST(DenseMemoTest, StoreLanesStoresMaskedLanesAndCountsNewFills) {
  DenseMemo memo(500, 3);
  const size_t n = 70;
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(499 - i * 5);
  memo.Store(rows[4], 2, 0.125);  // pre-filled, inside the mask
  memo.Store(rows[5], 2, 0.375);  // pre-filled, outside the mask
  std::vector<float> vals(n);
  std::vector<uint64_t> mask(bitspan::Words(n), 0);
  size_t masked = 0;
  for (size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<float>(i) / 128.0f;
    if (i % 2 == 0) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
      ++masked;
    }
  }
  mask.back() |= ~bitspan::TailMask(n);  // poisoned tail: ignored
  memo.StoreLanes(2, rows.data(), n, vals.data(), mask.data());
  // One new fill per masked lane except the pre-filled one, plus the
  // unmasked pre-filled cell.
  EXPECT_EQ(memo.FilledCount(), masked - 1 + 2);
  double v = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(memo.Lookup(rows[i], 2, &v), i % 2 == 0 || i == 5) << i;
    if (i % 2 == 0) {
      EXPECT_EQ(v, static_cast<double>(vals[i])) << i;
    }
  }
  EXPECT_TRUE(memo.Lookup(rows[5], 2, &v));
  EXPECT_EQ(v, 0.375);
  // Overwriting present cells does not count them again.
  memo.StoreLanes(2, rows.data(), n, vals.data(), mask.data());
  EXPECT_EQ(memo.FilledCount(), masked + 1);
}

TEST(DenseMemoTest, StoreLanesOverARowRangeEqualsFillSpan) {
  // Lanes whose rows are a contiguous range are a FillSpan: same cells,
  // same values, same fill count, and LookupLanes then sees what
  // GatherColumn sees.
  const size_t row = 37, n = 150;
  std::vector<float> vals(n);
  std::vector<uint64_t> mask(bitspan::Words(n), 0);
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<float>(i) / 512.0f;
    rows[i] = static_cast<uint32_t>(row + i);
    if (i % 5 != 1) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
  DenseMemo spans(300, 2);
  DenseMemo lanes(300, 2);
  spans.Store(row + 3, 1, 0.25);
  lanes.Store(row + 3, 1, 0.25);
  spans.FillSpan(row, n, 1, vals.data(), mask.data());
  lanes.StoreLanes(1, rows.data(), n, vals.data(), mask.data());
  EXPECT_EQ(lanes.FilledCount(), spans.FilledCount());
  EXPECT_EQ(std::memcmp(lanes.Column(1), spans.Column(1), 300 * sizeof(float)),
            0);

  std::vector<float> gathered(n);
  std::vector<uint64_t> present(bitspan::Words(n));
  spans.GatherColumn(row, n, 1, gathered.data(), present.data());
  std::vector<uint64_t> all(bitspan::Words(n), ~uint64_t{0});
  std::vector<float> looked(n);
  std::vector<uint64_t> missing(bitspan::Words(n));
  const size_t hits = lanes.LookupLanes(1, rows.data(), n, all.data(),
                                        looked.data(), missing.data());
  EXPECT_EQ(hits, bitspan::Count(present.data(), n));
  for (size_t wi = 0; wi < present.size(); ++wi) {
    const uint64_t valid =
        wi + 1 == present.size() ? bitspan::TailMask(n) : ~uint64_t{0};
    EXPECT_EQ(missing[wi], ~present[wi] & valid) << wi;
  }
  EXPECT_EQ(std::memcmp(looked.data(), gathered.data(), n * sizeof(float)),
            0);
}

}  // namespace
}  // namespace emdbg
