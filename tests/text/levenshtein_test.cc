#include "src/text/levenshtein.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace emdbg {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("sunday", "saturday"),
            LevenshteinDistance("saturday", "sunday"));
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("cat", "cut"), 1u);   // substitute
  EXPECT_EQ(LevenshteinDistance("cat", "cats"), 1u);  // insert
  EXPECT_EQ(LevenshteinDistance("cat", "at"), 1u);    // delete
}

TEST(LevenshteinTest, SimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abcd", "abce"), 0.75);
}

TEST(LevenshteinTest, BoundedMatchesExactWithinBound) {
  Rng rng(3);
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a;
    std::string b;
    const size_t la = rng.Uniform(10);
    const size_t lb = rng.Uniform(10);
    for (size_t i = 0; i < la; ++i) a.push_back(alphabet[rng.Uniform(4)]);
    for (size_t i = 0; i < lb; ++i) b.push_back(alphabet[rng.Uniform(4)]);
    const size_t exact = LevenshteinDistance(a, b);
    for (size_t bound : {0u, 1u, 2u, 5u, 12u}) {
      const size_t got = LevenshteinDistanceBounded(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(got, exact) << a << " vs " << b << " bound " << bound;
      } else {
        EXPECT_GT(got, bound) << a << " vs " << b << " bound " << bound;
      }
    }
  }
}

TEST(LevenshteinTest, BoundZeroBoundary) {
  // bound = 0: only exact equality may return 0; anything else must
  // report "exceeds bound" as exactly bound + 1.
  EXPECT_EQ(LevenshteinDistanceBounded("", "", 0), 0u);
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "abc", 0), 0u);
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "abd", 0), 1u);
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "abcd", 0), 1u);
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "xyz", 0), 1u);
}

TEST(LevenshteinTest, EqualStringsAtEveryBound) {
  const std::string s = "interactive debugging of entity matching";
  for (size_t bound : {size_t{0}, size_t{1}, size_t{7}, s.size()}) {
    EXPECT_EQ(LevenshteinDistanceBounded(s, s, bound), 0u) << bound;
    EXPECT_EQ(LevenshteinDistanceBoundedScalar(s, s, bound), 0u) << bound;
  }
}

TEST(LevenshteinTest, BandExactlyExhausted) {
  // distance == bound: the band is used up exactly and must still report
  // the true distance, while bound - 1 must clamp to bound.
  const std::string a = "abcdefgh";
  const std::string b = "abxdefgh";   // distance 1
  const std::string c = "xxcdefgh";   // distance 2
  EXPECT_EQ(LevenshteinDistanceBounded(a, b, 1), 1u);
  EXPECT_EQ(LevenshteinDistanceBounded(a, c, 2), 2u);
  EXPECT_EQ(LevenshteinDistanceBounded(a, c, 1), 2u);  // bound + 1
  // Pure length difference equal to the bound.
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "abcxy", 2), 2u);
  EXPECT_EQ(LevenshteinDistanceBounded("abc", "abcxyz", 2), 3u);  // bound + 1
  // Scalar reference agrees on the same boundaries.
  EXPECT_EQ(LevenshteinDistanceBoundedScalar(a, c, 2), 2u);
  EXPECT_EQ(LevenshteinDistanceBoundedScalar(a, c, 1), 2u);
  EXPECT_EQ(LevenshteinDistanceBoundedScalar("abc", "abcxy", 2), 2u);
}

TEST(LevenshteinTest, BitParallelMatchesScalarAcrossBlockBoundaries) {
  // Random strings whose lengths straddle the 64/128/192/256-char block
  // boundaries of the bit-parallel kernel.
  Rng rng(6);
  const std::string alphabet = "abcde";
  const size_t lengths[] = {0,   1,   2,   8,   31,  63,  64,  65,  100,
                            127, 128, 129, 191, 192, 193, 255, 256, 300};
  for (size_t la : lengths) {
    for (size_t lb : {la, la + 1, la / 2, la + 40}) {
      std::string a;
      std::string b;
      for (size_t i = 0; i < la; ++i) a.push_back(alphabet[rng.Uniform(5)]);
      for (size_t i = 0; i < lb; ++i) b.push_back(alphabet[rng.Uniform(5)]);
      const size_t scalar = LevenshteinDistanceScalar(a, b);
      EXPECT_EQ(LevenshteinDistance(a, b), scalar)
          << "lengths " << la << " x " << lb;
      for (size_t bound : {size_t{0}, size_t{2}, size_t{10}, size_t{64},
                           la + lb}) {
        const size_t got = LevenshteinDistanceBounded(a, b, bound);
        const size_t want = std::min(scalar, bound + 1);
        EXPECT_EQ(got, want)
            << "lengths " << la << " x " << lb << " bound " << bound;
        EXPECT_EQ(LevenshteinDistanceBoundedScalar(a, b, bound), want)
            << "lengths " << la << " x " << lb << " bound " << bound;
      }
    }
  }
}

TEST(LevenshteinTest, BitParallelHandlesHighBytes) {
  // UTF-8 multi-byte sequences are compared byte-by-byte; the Peq table
  // must index bytes >= 128 correctly.
  const std::string a = "caf\xc3\xa9";         // "café"
  const std::string b = "caf\xc3\xa8";         // "cafè"
  EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceScalar(a, b));
  EXPECT_EQ(LevenshteinDistance(a, a), 0u);
  std::string long_a;
  std::string long_b;
  for (int i = 0; i < 40; ++i) {
    long_a += "\xe6\x9d\xb1\xe4\xba\xac";  // 東京
    long_b += i % 3 ? "\xe6\x9d\xb1\xe4\xba\xac" : "x";
  }
  EXPECT_EQ(LevenshteinDistance(long_a, long_b),
            LevenshteinDistanceScalar(long_a, long_b));
}

TEST(LevenshteinTest, OneWordMatchesScalarAtEveryBound) {
  // Patterns of 1, 2, 63 and 64 bytes take the one-word body, 65 the
  // block loop; texts of 0-300 bytes, random or edited copies of the
  // pattern, over bytes >= 0x80 too; both argument orders; every bound
  // 0..m, so the early exit fires at every column it can.
  Rng rng(7);
  const std::string alphabet = "ab\x80\xC3\xFF";
  const size_t text_lengths[] = {0,  1,  2,   3,   31,  62,  63,  64, 65,
                                 66, 99, 127, 128, 129, 200, 255, 256, 300};
  for (const size_t m : {size_t{1}, size_t{2}, size_t{63}, size_t{64},
                         size_t{65}}) {
    for (const size_t n : text_lengths) {
      std::string pattern;
      for (size_t i = 0; i < m; ++i) {
        pattern.push_back(alphabet[rng.Uniform(alphabet.size())]);
      }
      std::string text;
      const bool related = rng.Bernoulli(0.5);
      for (size_t j = 0; j < n; ++j) {
        text.push_back(related && rng.Uniform(6) != 0
                           ? pattern[j % m]
                           : alphabet[rng.Uniform(alphabet.size())]);
      }
      for (int order = 0; order < 2; ++order) {
        const std::string& a = order == 0 ? pattern : text;
        const std::string& b = order == 0 ? text : pattern;
        const size_t scalar = LevenshteinDistanceScalar(a, b);
        ASSERT_EQ(LevenshteinDistance(a, b), scalar)
            << "m " << m << " n " << n;
        for (size_t bound = 0; bound <= m; ++bound) {
          ASSERT_EQ(LevenshteinDistanceBounded(a, b, bound),
                    std::min(scalar, bound + 1))
              << "m " << m << " n " << n << " bound " << bound;
        }
      }
    }
  }
}

TEST(LevenshteinTest, TriangleInequalityProperty) {
  Rng rng(4);
  const std::string alphabet = "ab";
  for (int trial = 0; trial < 100; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      const size_t len = rng.Uniform(8);
      for (size_t i = 0; i < len; ++i) {
        str.push_back(alphabet[rng.Uniform(2)]);
      }
    }
    const size_t ab = LevenshteinDistance(s[0], s[1]);
    const size_t bc = LevenshteinDistance(s[1], s[2]);
    const size_t ac = LevenshteinDistance(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

TEST(LevenshteinTest, SimilarityWithinUnitInterval) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::string a;
    std::string b;
    for (size_t i = 0; i < rng.Uniform(12); ++i) {
      a.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    for (size_t i = 0; i < rng.Uniform(12); ++i) {
      b.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    const double sim = LevenshteinSimilarity(a, b);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
}

}  // namespace
}  // namespace emdbg
