// Randomized differential tests for the interned-id fast path: every id
// kernel must return *bit-identical* doubles to its string counterpart,
// and PairContext with interning on must agree bit-for-bit with interning
// off for all 16 similarity functions — across empty values, unicode
// bytes, and duplicate-heavy token lists.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pair_context.h"
#include "src/data/table.h"
#include "src/text/cosine.h"
#include "src/text/id_kernels.h"
#include "src/text/monge_elkan.h"
#include "src/text/set_similarity.h"
#include "src/text/similarity_registry.h"
#include "src/text/soft_tfidf.h"
#include "src/text/tfidf.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace emdbg {
namespace {

// A vocabulary mixing plain words, numbers, and multi-byte UTF-8 (the
// tokenizer treats >127 bytes as separators for word tokens but q-grams
// keep the raw bytes — both paths must agree either way).
const char* const kVocab[] = {
    "acme",   "turbo", "x200",  "pro",   "max",     "12",     "2024",
    "café",   "münchén", "東京", "naïve", "blender", "mixer",  "deluxe",
    "silver", "black", "a",     "bb",    "ccc",     "dddd",   "eeeee",
};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

std::string RandomText(Rng& rng) {
  const uint64_t shape = rng.Uniform(10);
  if (shape == 0) return "";  // empty value
  std::string text;
  const size_t tokens = 1 + rng.Uniform(8);
  for (size_t i = 0; i < tokens; ++i) {
    if (!text.empty()) text.push_back(' ');
    if (shape == 1 && i > 0) {
      // Duplicate-heavy: repeat the first token.
      const size_t cut = text.find(' ');
      text += text.substr(0, cut == std::string::npos ? text.size() : cut);
    } else {
      text += kVocab[rng.Uniform(kVocabSize)];
    }
  }
  return text;
}

TokenIds MakeIds(const TokenList& tokens, TokenInterner& interner) {
  TokenIds ids;
  ids.doc = InternDocIds(tokens, interner);
  ids.sorted = SortedUniqueIds(ids.doc);
  return ids;
}

TEST(IdKernelsDifferentialTest, SetKernelsBitIdentical) {
  Rng rng(20170321);
  TokenInterner interner;
  for (int trial = 0; trial < 1500; ++trial) {
    const TokenList a = AlnumTokenize(RandomText(rng));
    const TokenList b = AlnumTokenize(RandomText(rng));
    const TokenIds ia = MakeIds(a, interner);
    const TokenIds ib = MakeIds(b, interner);
    EXPECT_EQ(IdJaccard(ia.sorted, ib.sorted), JaccardSimilarity(a, b));
    EXPECT_EQ(IdDice(ia.sorted, ib.sorted), DiceSimilarity(a, b));
    EXPECT_EQ(IdOverlap(ia.sorted, ib.sorted), OverlapCoefficient(a, b));
    EXPECT_EQ(IdIntersectionSize(ia.sorted, ib.sorted),
              IntersectionSize(a, b));
  }
}

TEST(IdKernelsDifferentialTest, QGramKernelsBitIdentical) {
  Rng rng(42);
  TokenInterner interner;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::string sa = RandomText(rng);
    const std::string sb = RandomText(rng);
    const TokenList a = QGramTokenize(sa, 3);
    const TokenList b = QGramTokenize(sb, 3);
    const TokenIds ia = MakeIds(a, interner);
    const TokenIds ib = MakeIds(b, interner);
    EXPECT_EQ(IdJaccard(ia.sorted, ib.sorted), TrigramSimilarity(sa, sb));
  }
}

std::vector<TokenId> QGramCodes(std::string_view text) {
  std::vector<TokenId> codes(QGramCodeCapacity(text.size()));
  codes.resize(SortedQGramCodes(text, codes.data()));
  return codes;
}

bool SameDouble(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(IdKernelsDifferentialTest, PackedQGramCodesMatchTrigramSimilarity) {
  // Hand-picked edges: empty and 1-2 byte values, literal '#' (the pad
  // byte), bytes >= 0x80, mixed case, repeated grams.
  std::vector<std::string> values = {
      "", "a", "A", "#", "##", "a#", "#a", "ab", "AB", "aB", "###", "a#b",
      "\x80", "\xff\xfe", "caf\xc3\xa9", "CAF\xc3\x89", "\xc3\xa9#",
      "aaaa", "AaAa", "x200 PRO", "##a##", "\x01\x02"};
  values.push_back(std::string(1, '\0'));
  values.push_back(std::string("a\0b", 3));
  Rng rng(1907);
  const char alphabet[] = {'a', 'B', 'c', '#', ' ', '1', '\x80', '\xe9',
                           'Z', 'z', '\0'};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string v;
    const size_t len = rng.Uniform(trial < 600 ? 4 : 40);
    for (size_t k = 0; k < len; ++k) {
      v.push_back(alphabet[rng.Uniform(sizeof(alphabet))]);
    }
    values.push_back(std::move(v));
  }
  for (const std::string& v : values) {
    // The codes are the sorted-unique grams, byte for byte.
    const std::vector<TokenId> codes = QGramCodes(v);
    const std::vector<std::string> grams = ToSortedUnique(QGramTokenize(v, 3));
    ASSERT_EQ(codes.size(), grams.size()) << "value of " << v.size();
    for (size_t k = 0; k < codes.size(); ++k) {
      const char decoded[3] = {static_cast<char>(codes[k] >> 16),
                               static_cast<char>(codes[k] >> 8),
                               static_cast<char>(codes[k])};
      EXPECT_EQ(std::string(decoded, 3), grams[k]);
    }
  }
  for (size_t k = 0; k < values.size(); ++k) {
    const std::string& x = values[k];
    const std::string& y = values[(k * 7 + 3) % values.size()];
    for (int order = 0; order < 2; ++order) {
      const std::string& a = order == 0 ? x : y;
      const std::string& b = order == 0 ? y : x;
      const double want = TrigramSimilarity(a, b);
      const double got = IdJaccard(QGramCodes(a), QGramCodes(b));
      EXPECT_TRUE(SameDouble(got, want))
          << got << " vs " << want << " on values of " << a.size()
          << " and " << b.size() << " bytes";
    }
  }
}

TEST(IdKernelsDifferentialTest, WordIdsFromBytesMatchAlnumTokenize) {
  Rng rng(1908);
  TokenInterner interner;
  std::string buf;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = RandomText(rng);
    if (trial % 3 == 0) text += " Mixed-CASE,x\xc3\xa9y  9Z ";
    std::vector<TokenId> from_bytes;
    InternWordIds(text, interner, buf, from_bytes);
    EXPECT_EQ(from_bytes, InternDocIds(AlnumTokenize(text), interner));
  }
}

TEST(IdKernelsDifferentialTest, IntersectionMatchesStdAcrossBlockBoundaries) {
  // Every size pair 0..70 crosses each 4-element block boundary of the
  // SSE2 path on both sides; values from a small range give dense
  // matches, a wide range sparse ones.
  Rng rng(1909);
  auto sorted_set = [&rng](size_t n, uint32_t range) {
    std::vector<TokenId> v;
    while (v.size() < n) {
      v.push_back(static_cast<TokenId>(rng.Uniform(range)));
      if (v.size() == n) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
      }
    }
    return v;
  };
  for (size_t na = 0; na <= 70; ++na) {
    for (size_t nb = 0; nb <= 70; ++nb) {
      for (const uint32_t range : {160u, 100000u}) {
        const std::vector<TokenId> a = sorted_set(na, range);
        const std::vector<TokenId> b = sorted_set(nb, range);
        std::vector<TokenId> common;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(common));
        ASSERT_EQ(IdIntersectionSize(a, b), common.size())
            << "sizes " << na << " x " << nb << " range " << range;
        ASSERT_EQ(IdIntersectionSize(b, a), common.size());
      }
    }
  }
  // Skewed sizes (>= 16x) take the galloping path.
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<TokenId> small = sorted_set(1 + rng.Uniform(6), 5000);
    const std::vector<TokenId> large =
        sorted_set(small.size() * 16 + rng.Uniform(900), 5000);
    std::vector<TokenId> common;
    std::set_intersection(small.begin(), small.end(), large.begin(),
                          large.end(), std::back_inserter(common));
    ASSERT_EQ(IdIntersectionSize(small, large), common.size());
    ASSERT_EQ(IdIntersectionSize(large, small), common.size());
  }
}

TEST(IdKernelsDifferentialTest, SkewedIntersectionsHitGallopPath) {
  Rng rng(11);
  TokenInterner interner;
  // One tiny set against one huge set: exercises the galloping branch.
  for (int trial = 0; trial < 200; ++trial) {
    TokenList small;
    for (size_t i = 0; i < 1 + rng.Uniform(3); ++i) {
      small.push_back("tok" + std::to_string(rng.Uniform(4000)));
    }
    TokenList large;
    for (size_t i = 0; i < 500 + rng.Uniform(500); ++i) {
      large.push_back("tok" + std::to_string(rng.Uniform(4000)));
    }
    const TokenIds is = MakeIds(small, interner);
    const TokenIds il = MakeIds(large, interner);
    EXPECT_EQ(IdIntersectionSize(is.sorted, il.sorted),
              IntersectionSize(small, large));
    EXPECT_EQ(IdJaccard(is.sorted, il.sorted),
              JaccardSimilarity(small, large));
  }
}

TEST(IdKernelsDifferentialTest, CosineTfBitIdentical) {
  Rng rng(7);
  TokenInterner interner;
  for (int trial = 0; trial < 1200; ++trial) {
    const TokenList a = AlnumTokenize(RandomText(rng));
    const TokenList b = AlnumTokenize(RandomText(rng));
    const TokenIds ia = MakeIds(a, interner);
    const TokenIds ib = MakeIds(b, interner);
    const auto ranks = interner.LexRanks();
    const IdTfVector ta = MakeIdTfVector(ia.doc, *ranks);
    const IdTfVector tb = MakeIdTfVector(ib.doc, *ranks);
    EXPECT_EQ(IdCosineTf(ta, tb, *ranks), CosineSimilarity(a, b));
  }
}

TEST(IdKernelsDifferentialTest, TfIdfFamilyBitIdentical) {
  Rng rng(13);
  TokenInterner interner;
  // Corpus-backed model shared by both paths.
  TfIdfModel model;
  std::vector<TokenList> docs;
  for (int d = 0; d < 60; ++d) {
    docs.push_back(AlnumTokenize(RandomText(rng)));
    model.AddDocument(docs.back());
  }
  for (int trial = 0; trial < 1000; ++trial) {
    const TokenList& a = docs[rng.Uniform(docs.size())];
    const TokenList& b = docs[rng.Uniform(docs.size())];
    TokenIds ia = MakeIds(a, interner);
    TokenIds ib = MakeIds(b, interner);
    const auto ranks = interner.LexRanks();
    std::vector<double> idf_by_id;
    idf_by_id.reserve(interner.size());
    for (uint32_t id = 0; id < interner.size(); ++id) {
      idf_by_id.push_back(model.Idf(std::string(interner.Text(id))));
    }
    const IdWeightVector wa =
        MakeIdWeightVector(MakeIdTfVector(ia.doc, *ranks), idf_by_id);
    const IdWeightVector wb =
        MakeIdWeightVector(MakeIdTfVector(ib.doc, *ranks), idf_by_id);
    EXPECT_EQ(IdTfIdfCosine(wa, wb, *ranks), model.Similarity(a, b));
    EXPECT_EQ(IdSoftTfIdf(wa, wb, *ranks, interner),
              SoftTfIdfSimilarity(model, a, b));
  }
}

TEST(IdKernelsDifferentialTest, MongeElkanBitIdentical) {
  Rng rng(17);
  TokenInterner interner;
  for (int trial = 0; trial < 1000; ++trial) {
    const TokenList a = AlnumTokenize(RandomText(rng));
    const TokenList b = AlnumTokenize(RandomText(rng));
    const TokenIds ia = MakeIds(a, interner);
    const TokenIds ib = MakeIds(b, interner);
    EXPECT_EQ(IdMongeElkan(ia.doc, ia.sorted, ib.doc, ib.sorted, interner),
              MongeElkanSimilarity(a, b));
  }
}

// End-to-end: PairContext with interning on agrees bit-for-bit with
// interning off for all 16 similarity functions over >= 1000 random pairs.
class PairContextDifferentialTest : public ::testing::Test {
 protected:
  PairContextDifferentialTest() {
    Rng rng(20250806);
    a_ = Table("A", Schema({"text"}));
    b_ = Table("B", Schema({"text"}));
    for (int i = 0; i < 40; ++i) {
      (void)a_.AppendRow({RandomText(rng)});
      (void)b_.AppendRow({RandomText(rng)});
    }
    catalog_ = FeatureCatalog(a_.schema(), b_.schema());
    for (const SimFunction fn : AllSimFunctions()) {
      features_.push_back(*catalog_.InternByName(fn, "text", "text"));
    }
  }

  Table a_;
  Table b_;
  FeatureCatalog catalog_;
  std::vector<FeatureId> features_;
};

TEST_F(PairContextDifferentialTest, AllSixteenFunctionsBitIdentical) {
  PairContext with_ids(a_, b_, catalog_);
  PairContext without_ids(
      a_, b_, catalog_,
      PairContext::Options{.cache_tokens = true, .intern_tokens = false});
  for (const FeatureId f : features_) {
    for (uint32_t i = 0; i < a_.num_rows(); ++i) {
      for (uint32_t j = 0; j < b_.num_rows(); ++j) {
        EXPECT_EQ(with_ids.ComputeFeature(f, {i, j}),
                  without_ids.ComputeFeature(f, {i, j}))
            << catalog_.Name(f) << " on pair (" << i << "," << j << ")";
      }
    }
  }
}

TEST_F(PairContextDifferentialTest, PrewarmedParallelBuildBitIdentical) {
  // Prewarm with a pool (parallel id-array construction), then compare
  // against the lazily built string path.
  ThreadPool pool(4);
  PairContext with_ids(a_, b_, catalog_);
  with_ids.Prewarm(features_, &pool);
  PairContext without_ids(
      a_, b_, catalog_,
      PairContext::Options{.cache_tokens = true, .intern_tokens = false});
  for (const FeatureId f : features_) {
    for (uint32_t i = 0; i < a_.num_rows(); ++i) {
      for (uint32_t j = 0; j < b_.num_rows(); ++j) {
        EXPECT_EQ(with_ids.ComputeFeature(f, {i, j}),
                  without_ids.ComputeFeature(f, {i, j}))
            << catalog_.Name(f) << " on pair (" << i << "," << j << ")";
      }
    }
  }
  EXPECT_GT(with_ids.IdCacheBytes(), 0u);
  ASSERT_NE(with_ids.interner(), nullptr);
  EXPECT_GT(with_ids.interner()->ArenaBytes(), 0u);
  EXPECT_EQ(without_ids.interner(), nullptr);
  EXPECT_EQ(without_ids.IdCacheBytes(), 0u);
}

TEST_F(PairContextDifferentialTest, ClearTokenCachesKeepsValues) {
  PairContext ctx(a_, b_, catalog_);
  std::vector<double> before;
  for (const FeatureId f : features_) {
    before.push_back(ctx.ComputeFeature(f, {3, 5}));
  }
  ctx.ClearTokenCaches();
  for (size_t k = 0; k < features_.size(); ++k) {
    EXPECT_EQ(ctx.ComputeFeature(features_[k], {3, 5}), before[k]);
  }
}

}  // namespace
}  // namespace emdbg
