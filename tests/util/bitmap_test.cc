#include "src/util/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/random.h"

namespace emdbg {
namespace {

TEST(BitmapTest, StartsCleared) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.Count(), 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(bm.Get(i));
}

TEST(BitmapTest, InitialTrueRespectsSize) {
  Bitmap bm(70, true);
  EXPECT_EQ(bm.Count(), 70u);  // tail bits beyond size must not count
}

TEST(BitmapTest, SetClearGet) {
  Bitmap bm(130);
  bm.Set(0);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(129));
  EXPECT_EQ(bm.Count(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Get(64));
  EXPECT_EQ(bm.Count(), 2u);
}

TEST(BitmapTest, AssignDispatches) {
  Bitmap bm(10);
  bm.Assign(3, true);
  EXPECT_TRUE(bm.Get(3));
  bm.Assign(3, false);
  EXPECT_FALSE(bm.Get(3));
}

TEST(BitmapTest, FillBothWays) {
  Bitmap bm(67);
  bm.Fill(true);
  EXPECT_EQ(bm.Count(), 67u);
  bm.Fill(false);
  EXPECT_EQ(bm.Count(), 0u);
}

TEST(BitmapTest, ResizeGrowWithTrue) {
  Bitmap bm(10);
  bm.Set(9);
  bm.Resize(100, true);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_TRUE(bm.Get(9));
  EXPECT_FALSE(bm.Get(0));
  // New bits [10, 100) are all true.
  EXPECT_EQ(bm.Count(), 91u);
}

TEST(BitmapTest, ResizeShrinkDropsBits) {
  Bitmap bm(100, true);
  bm.Resize(40);
  EXPECT_EQ(bm.Count(), 40u);
  bm.Resize(100);
  EXPECT_EQ(bm.Count(), 40u);  // regrown bits default to false
}

TEST(BitmapTest, ToIndices) {
  Bitmap bm(200);
  bm.Set(1);
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_EQ(bm.ToIndices(), (std::vector<size_t>{1, 63, 64, 199}));
}

TEST(BitmapTest, FindNext) {
  Bitmap bm(150);
  bm.Set(5);
  bm.Set(70);
  EXPECT_EQ(bm.FindNext(0), 5u);
  EXPECT_EQ(bm.FindNext(5), 5u);
  EXPECT_EQ(bm.FindNext(6), 70u);
  EXPECT_EQ(bm.FindNext(71), 150u);  // none -> size()
  EXPECT_EQ(bm.FindNext(999), 150u);
}

TEST(BitmapTest, IterationViaFindNextVisitsAllSetBits) {
  Bitmap bm(300);
  Rng rng(7);
  std::vector<size_t> expected;
  for (int k = 0; k < 40; ++k) {
    const size_t i = static_cast<size_t>(rng.Uniform(300));
    if (!bm.Get(i)) expected.push_back(i);
    bm.Set(i);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<size_t> seen;
  for (size_t i = bm.FindNext(0); i < bm.size(); i = bm.FindNext(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, expected);
}

TEST(BitmapTest, BitwiseOps) {
  Bitmap a(10);
  Bitmap b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitmap u = a;
  u |= b;
  EXPECT_EQ(u.ToIndices(), (std::vector<size_t>{1, 2, 3}));
  Bitmap n = a;
  n &= b;
  EXPECT_EQ(n.ToIndices(), (std::vector<size_t>{2}));
  Bitmap d = a;
  d.Subtract(b);
  EXPECT_EQ(d.ToIndices(), (std::vector<size_t>{1}));
}

TEST(BitmapTest, Equality) {
  Bitmap a(65);
  Bitmap b(65);
  EXPECT_EQ(a, b);
  a.Set(64);
  EXPECT_FALSE(a == b);
  b.Set(64);
  EXPECT_EQ(a, b);
}

TEST(BitmapTest, MemoryBytes) {
  Bitmap bm(1024);
  EXPECT_EQ(bm.MemoryBytes(), 1024 / 8);
  Bitmap odd(65);
  EXPECT_EQ(odd.MemoryBytes(), 16u);  // two 64-bit words
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bm;
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.FindNext(0), 0u);
  EXPECT_TRUE(bm.ToIndices().empty());
}

// ---- Word-span algebra (bitspan) and the 64-aligned span members.
// Every boundary the block matcher can produce: empty, sub-word, exactly
// one word, one word + 1, and multi-word with/without a partial tail. ----

constexpr size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128};

/// Reference bit-vector for differential checks of the word-span ops.
std::vector<bool> RefBits(const uint64_t* words, size_t nbits) {
  std::vector<bool> out(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    out[i] = (words[i >> 6] >> (i & 63)) & 1u;
  }
  return out;
}

TEST(BitSpanTest, TailMask) {
  EXPECT_EQ(bitspan::TailMask(64), ~uint64_t{0});
  EXPECT_EQ(bitspan::TailMask(0), ~uint64_t{0});
  EXPECT_EQ(bitspan::TailMask(1), uint64_t{1});
  EXPECT_EQ(bitspan::TailMask(63), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(bitspan::TailMask(65), uint64_t{1});
}

TEST(BitSpanTest, FillRespectsTail) {
  for (const size_t n : kBoundarySizes) {
    std::vector<uint64_t> w(bitspan::Words(n) + 1, 0xdeadbeefdeadbeefull);
    bitspan::Fill(w.data(), n, true);
    EXPECT_EQ(bitspan::Count(w.data(), n), n) << "n=" << n;
    if (bitspan::Words(n) > 0) {
      // Bits past n in the last word must be zero.
      EXPECT_EQ(w[bitspan::Words(n) - 1] & ~bitspan::TailMask(n), 0u)
          << "n=" << n;
    }
    // The guard word past the span is untouched.
    EXPECT_EQ(w[bitspan::Words(n)], 0xdeadbeefdeadbeefull);
    bitspan::Fill(w.data(), n, false);
    EXPECT_EQ(bitspan::Count(w.data(), n), 0u) << "n=" << n;
    EXPECT_FALSE(bitspan::Any(w.data(), n));
  }
}

TEST(BitSpanTest, CombinesMatchReferenceAtEveryBoundary) {
  Rng rng(11);
  for (const size_t n : kBoundarySizes) {
    const size_t words = bitspan::Words(n);
    std::vector<uint64_t> a(words + 1, 0), b(words + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(2)) a[i >> 6] |= uint64_t{1} << (i & 63);
      if (rng.Uniform(2)) b[i >> 6] |= uint64_t{1} << (i & 63);
    }
    // Poison b's tail: defensive masking must keep it out of dst.
    if (words > 0 && (n & 63) != 0) {
      b[words - 1] |= ~bitspan::TailMask(n);
    }
    const std::vector<bool> ra = RefBits(a.data(), n);
    const std::vector<bool> rb = RefBits(b.data(), n);

    std::vector<uint64_t> d = a;
    bitspan::And(d.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(RefBits(d.data(), n)[i], ra[i] && rb[i]) << n << ":" << i;
    }

    d = a;
    bitspan::Or(d.data(), b.data(), n);
    std::vector<bool> ro = RefBits(d.data(), n);
    size_t expect_count = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ro[i], ra[i] || rb[i]) << n << ":" << i;
      if (ra[i] || rb[i]) ++expect_count;
    }
    // Or must not smear b's poisoned tail into d's tail word.
    EXPECT_EQ(bitspan::Count(d.data(), n), expect_count);
    if (words > 0) {
      EXPECT_EQ(d[words - 1] & ~bitspan::TailMask(n), 0u) << "n=" << n;
    }

    d = a;
    bitspan::AndNot(d.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(RefBits(d.data(), n)[i], ra[i] && !rb[i]) << n << ":" << i;
    }

    size_t and_count = 0;
    for (size_t i = 0; i < n; ++i) and_count += (ra[i] && rb[i]) ? 1 : 0;
    EXPECT_EQ(bitspan::CountAnd(a.data(), b.data(), n), and_count);
    EXPECT_EQ(bitspan::Any(a.data(), n),
              std::find(ra.begin(), ra.end(), true) != ra.end());
  }
}

TEST(BitSpanTest, CountIgnoresPoisonedTail) {
  for (const size_t n : kBoundarySizes) {
    if (n == 0) continue;
    std::vector<uint64_t> w(bitspan::Words(n), ~uint64_t{0});
    EXPECT_EQ(bitspan::Count(w.data(), n), n) << "n=" << n;
    EXPECT_TRUE(bitspan::Any(w.data(), n));
  }
}

TEST(BitmapTest, OrSpanAtEveryBoundary) {
  for (const size_t n : kBoundarySizes) {
    for (const size_t offset : {size_t{0}, size_t{64}, size_t{128}}) {
      Bitmap bm(offset + n + 64);
      bm.Set(0);  // pre-existing bit outside the span must survive
      std::vector<uint64_t> span(bitspan::Words(n), ~uint64_t{0});
      bm.OrSpan(offset, span.data(), n);
      EXPECT_EQ(bm.Count(), n + (offset > 0 ? 1 : n > 0 ? 0 : 1))
          << "n=" << n << " off=" << offset;
      for (size_t i = 0; i < n; ++i) EXPECT_TRUE(bm.Get(offset + i));
      // The bit just past the span stays clear (tail-masked input) —
      // except bit 0, which this test pre-sets.
      if (offset + n > 0) {
        EXPECT_FALSE(bm.Get(offset + n)) << "n=" << n << " off=" << offset;
      }
    }
  }
}

TEST(BitmapTest, AndNotSpanClearsOnlySpanBits) {
  for (const size_t n : kBoundarySizes) {
    Bitmap bm(128 + n + 64, true);
    std::vector<uint64_t> span(bitspan::Words(n), ~uint64_t{0});
    bm.AndNotSpan(128, span.data(), n);
    EXPECT_EQ(bm.Count(), bm.size() - n) << "n=" << n;
    for (size_t i = 0; i < n; ++i) EXPECT_FALSE(bm.Get(128 + i));
    if (n > 0) {
      EXPECT_TRUE(bm.Get(128 + n));
    }
  }
}

TEST(BitmapTest, ExtractSpanRoundTrips) {
  Rng rng(23);
  for (const size_t n : kBoundarySizes) {
    Bitmap bm(64 + n + 64);
    for (size_t i = 0; i < bm.size(); ++i) {
      if (rng.Uniform(2)) bm.Set(i);
    }
    std::vector<uint64_t> out(bitspan::Words(n) + 1, 0xffffffffffffffffull);
    bm.ExtractSpan(64, out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ((out[i >> 6] >> (i & 63)) & 1u, bm.Get(64 + i) ? 1u : 0u)
          << "n=" << n << " i=" << i;
    }
    if (bitspan::Words(n) > 0) {
      EXPECT_EQ(out[bitspan::Words(n) - 1] & ~bitspan::TailMask(n), 0u);
    }
    // Round-trip: OR the extracted span into an empty bitmap.
    Bitmap back(bm.size());
    back.OrSpan(64, out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back.Get(64 + i), bm.Get(64 + i));
    }
  }
}

}  // namespace
}  // namespace emdbg
