// Randomized differential tests for the interned-id fast path: every id
// kernel must return *bit-identical* doubles to its string counterpart,
// and PairContext must agree bit-for-bit with the string oracles for all
// 16 similarity functions on both rungs of its ladder — across empty
// values, unicode bytes, and duplicate-heavy token lists.

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
#include "src/text/soundex.h"
#include "src/text/tfidf.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"
#include "src/util/bitmap.h"
#include "src/util/memory_budget.h"
#include "src/util/random.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

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

// Soundex edge values: no letters, H/W (transparent between same-coded
// letters), repeated codes, every ASCII separator, bytes >= 0x80 (never
// letters) and empty values.
std::vector<std::string> SoundexEdgeValues() {
  return {"",         " ",           "\t\n\r\f\v",   "123",
          "--- 42",   "o'brien",      "OBrien",          "Ashcraft",
          "ashcroft", "hwhw",         "W",               "Wh h",
          "Tymczak",  "Pfister",      "Honeyman",        "Lee a",
          "Robert Rupert Robert",     "smith smyth SMITH",
          "smith\tsmyth\nrobert",     "  a  b  ",        "x\vy\fz",
          "\xC0",     "\xE0" "b\xC0", "caf\xc3\xa9 cafe", "\xff\xfe 7",
          "acme turbo", "ACME\tTurbo\rx200"};
}

std::vector<TokenId> SoundexCodes(std::string_view text) {
  std::vector<TokenId> codes(SoundexCodeCapacity(text));
  codes.resize(SortedSoundexCodes(text, codes.data()));
  return codes;
}

TEST(IdKernelsDifferentialTest, PackedSoundexCodesMatchSoundexSimilarity) {
  std::vector<std::string> values = SoundexEdgeValues();
  Rng rng(1909);
  const char alphabet[] = {'a', 'H', 'w', 'r', 'B', 'p', ' ',  '\t',
                           '\n', '1', '\x80', '\xe9', 'Z', 'y', '\0'};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string v;
    const size_t len = rng.Uniform(trial < 600 ? 5 : 40);
    for (size_t k = 0; k < len; ++k) {
      v.push_back(alphabet[rng.Uniform(sizeof(alphabet))]);
    }
    values.push_back(std::move(v));
  }
  for (const std::string& v : values) {
    // The codes are the sorted-unique SoundexCode strings, byte for byte,
    // and the capacity is the token count.
    const std::vector<TokenId> codes = SoundexCodes(v);
    EXPECT_EQ(SoundexCodeCapacity(v), SplitWhitespace(v).size());
    std::vector<std::string> want;
    for (const std::string& token : SplitWhitespace(v)) {
      std::string code = SoundexCode(token);
      if (!code.empty()) want.push_back(std::move(code));
    }
    want = ToSortedUnique(want);
    ASSERT_EQ(codes.size(), want.size()) << "value of " << v.size();
    for (size_t k = 0; k < codes.size(); ++k) {
      const char decoded[4] = {
          static_cast<char>(codes[k] >> 24), static_cast<char>(codes[k] >> 16),
          static_cast<char>(codes[k] >> 8), static_cast<char>(codes[k])};
      EXPECT_EQ(std::string(decoded, 4), want[k]);
    }
  }
  for (size_t k = 0; k < values.size(); ++k) {
    const std::string& x = values[k];
    for (const std::string& y :
         {values[(k * 7 + 3) % values.size()], values[k / 2]}) {
      const double want = SoundexSimilarity(x, y);
      const double got = IdJaccard(SoundexCodes(x), SoundexCodes(y));
      EXPECT_TRUE(SameDouble(got, want))
          << got << " vs " << want << " on values of " << x.size()
          << " and " << y.size() << " bytes";
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

// End-to-end: PairContext agrees bit-for-bit with the string oracles for
// all 16 similarity functions over 1600 random pairs, on both rungs of its
// ladder — id columns, and re-tokenizing per call once a budget refuses
// the cache — through both ComputeFeatureBlock and ComputeFeature.
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
    for (uint32_t i = 0; i < a_.num_rows(); ++i) {
      for (uint32_t j = 0; j < b_.num_rows(); ++j) pairs_.push_back({i, j});
    }
  }

  /// Every feature on every pair equals the oracle: first as one block
  /// (which builds the feature's structures when `ctx` is cold), then pair
  /// by pair.
  void ExpectOracleValues(PairContext& ctx) {
    testing::StringOracle oracle(a_, b_, catalog_);
    const std::vector<uint64_t> mask(bitspan::Words(pairs_.size()),
                                     ~uint64_t{0});
    for (const FeatureId f : features_) {
      std::vector<float> block(pairs_.size());
      ctx.ComputeFeatureBlock(f, pairs_.data(), pairs_.size(), mask.data(),
                              block.data());
      for (size_t k = 0; k < pairs_.size(); ++k) {
        const double want = oracle(f, pairs_[k]);
        EXPECT_EQ(static_cast<double>(block[k]), want)
            << catalog_.Name(f) << " block lane " << k;
        EXPECT_EQ(ctx.ComputeFeature(f, pairs_[k]), want)
            << catalog_.Name(f) << " on pair (" << pairs_[k].a << ","
            << pairs_[k].b << ")";
      }
    }
  }

  Table a_;
  Table b_;
  FeatureCatalog catalog_;
  std::vector<FeatureId> features_;
  std::vector<PairId> pairs_;
};

TEST_F(PairContextDifferentialTest, AllSixteenFunctionsBitIdentical) {
  PairContext with_ids(a_, b_, catalog_);
  ExpectOracleValues(with_ids);
  EXPECT_FALSE(with_ids.id_path_degraded());
  EXPECT_GT(with_ids.IdCacheBytes(), 0u);

  MemoryBudget refusing(1, "refusing");
  PairContext fallback(a_, b_, catalog_,
                       PairContext::Options{.budget = &refusing});
  ExpectOracleValues(fallback);
  EXPECT_TRUE(fallback.id_path_degraded());
  EXPECT_EQ(fallback.IdCacheBytes(), 0u);
}

TEST_F(PairContextDifferentialTest, PrewarmedParallelBuildBitIdentical) {
  // Prewarm with a pool (parallel id-array construction), then compare
  // against the oracles; the refused context's Prewarm builds the string
  // TF-IDF model instead.
  ThreadPool pool(4);
  PairContext with_ids(a_, b_, catalog_);
  with_ids.Prewarm(features_, &pool);
  const size_t warm_bytes = with_ids.IdCacheBytes();
  EXPECT_GT(warm_bytes, 0u);
  EXPECT_GT(with_ids.interner().ArenaBytes(), 0u);
  ExpectOracleValues(with_ids);
  EXPECT_EQ(with_ids.IdCacheBytes(), warm_bytes);

  MemoryBudget refusing(1, "refusing");
  PairContext fallback(a_, b_, catalog_,
                       PairContext::Options{.budget = &refusing});
  fallback.Prewarm(features_, &pool);
  EXPECT_TRUE(fallback.id_path_degraded());
  const uint64_t denials = fallback.budget_denials();
  ExpectOracleValues(fallback);
  EXPECT_EQ(fallback.budget_denials(), denials);
  EXPECT_EQ(fallback.IdCacheBytes(), 0u);
}

TEST_F(PairContextDifferentialTest, DropIdCachesKeepsValues) {
  PairContext ctx(a_, b_, catalog_);
  testing::StringOracle oracle(a_, b_, catalog_);
  std::vector<double> before;
  for (const FeatureId f : features_) {
    before.push_back(ctx.ComputeFeature(f, {3, 5}));
    EXPECT_EQ(before.back(), oracle(f, {3, 5})) << catalog_.Name(f);
  }
  ctx.DropIdCaches();
  for (size_t k = 0; k < features_.size(); ++k) {
    EXPECT_EQ(ctx.ComputeFeature(features_[k], {3, 5}), before[k]);
  }
}

TEST(PairContextSoundexTest, EdgeValuesBitIdenticalOnBothRungs) {
  // soundex(brand-like column) over the edge values, against
  // SoundexSimilarity, through ComputeFeatureBlock and ComputeFeature, with
  // code columns and with a budget that refuses them (re-tokenize rung).
  const std::vector<std::string> values = SoundexEdgeValues();
  Table a("A", Schema({"brand"}));
  Table b("B", Schema({"brand"}));
  for (const std::string& v : values) {
    ASSERT_TRUE(a.AppendRow({v}).ok());
    ASSERT_TRUE(b.AppendRow({v}).ok());
  }
  FeatureCatalog catalog(a.schema(), b.schema());
  const FeatureId f =
      *catalog.InternByName(SimFunction::kSoundex, "brand", "brand");
  std::vector<PairId> pairs;
  for (uint32_t i = 0; i < a.num_rows(); ++i) {
    for (uint32_t j = 0; j < b.num_rows(); ++j) pairs.push_back({i, j});
  }
  const std::vector<uint64_t> mask(bitspan::Words(pairs.size()),
                                   ~uint64_t{0});
  MemoryBudget refusing(1, "refusing");
  PairContext with_codes(a, b, catalog);
  PairContext fallback(a, b, catalog,
                       PairContext::Options{.budget = &refusing});
  for (PairContext* ctx : {&with_codes, &fallback}) {
    std::vector<float> block(pairs.size());
    ctx->ComputeFeatureBlock(f, pairs.data(), pairs.size(), mask.data(),
                             block.data());
    for (size_t k = 0; k < pairs.size(); ++k) {
      const double want = static_cast<float>(
          SoundexSimilarity(values[pairs[k].a], values[pairs[k].b]));
      EXPECT_TRUE(SameDouble(static_cast<double>(block[k]), want))
          << "block lane " << k;
      EXPECT_TRUE(SameDouble(ctx->ComputeFeature(f, pairs[k]), want))
          << "pair (" << pairs[k].a << "," << pairs[k].b << ")";
    }
  }
  EXPECT_FALSE(with_codes.id_path_degraded());
  EXPECT_GT(with_codes.IdCacheBytes(), 0u);
  EXPECT_TRUE(fallback.id_path_degraded());
  EXPECT_EQ(fallback.IdCacheBytes(), 0u);
}

TEST(IdfByIdTest, EqualsTfIdfModelIdfBitForBit) {
  // The id path's idf table, from document frequencies counted per word
  // id, memcmp-equal to TfIdfModel::Idf of each id's text — including ids
  // interned only by another attribute, which have df = 0 in the model.
  const GeneratedDataset ds = testing::SmallProducts();
  FeatureCatalog catalog(ds.a.schema(), ds.b.schema());
  catalog.InternAllSameAttribute();
  PairContext ctx(ds.a, ds.b, catalog);
  std::vector<FeatureId> words;
  for (AttrIndex attr = 0; attr < ds.a.schema().size(); ++attr) {
    words.push_back(catalog.Intern(Feature{SimFunction::kJaccard, attr, attr}));
  }
  ctx.Prewarm(words);  // interns every attribute's words first
  for (AttrIndex attr = 0; attr < ds.a.schema().size(); ++attr) {
    TfIdfModel model;
    for (uint32_t row = 0; row < ds.a.num_rows(); ++row) {
      model.AddDocument(AlnumTokenize(ds.a.Value(row, attr)));
    }
    for (uint32_t row = 0; row < ds.b.num_rows(); ++row) {
      model.AddDocument(AlnumTokenize(ds.b.Value(row, attr)));
    }
    const std::vector<double>* idf = ctx.IdfById(attr, attr);
    ASSERT_NE(idf, nullptr);
    ASSERT_EQ(idf->size(), ctx.interner().size());
    size_t unseen = 0;
    for (uint32_t id = 0; id < idf->size(); ++id) {
      const std::string text(ctx.interner().Text(id));
      const double want = model.Idf(text);
      EXPECT_EQ(std::memcmp(&(*idf)[id], &want, sizeof(double)), 0)
          << "attr " << attr << " id " << id << " '" << text << "'";
      unseen += want == TfIdfModel::SmoothedIdf(model.document_count(), 0);
    }
    EXPECT_GT(unseen, 0u) << "attr " << attr
                          << ": no id interned from another attribute";
  }
}

}  // namespace
}  // namespace emdbg
