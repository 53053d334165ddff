#include "src/text/similarity_registry.h"

#include <gtest/gtest.h>

#include "src/text/exact.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

TEST(RegistryTest, AllFunctionsHaveMetadata) {
  EXPECT_EQ(AllSimFunctions().size(), static_cast<size_t>(kNumSimFunctions));
  for (const SimFunction fn : AllSimFunctions()) {
    const SimFunctionInfo& info = GetSimFunctionInfo(fn);
    EXPECT_EQ(info.fn, fn);
    EXPECT_NE(info.name, nullptr);
  }
}

TEST(RegistryTest, NameLookup) {
  auto fn = SimFunctionFromName("jaccard");
  ASSERT_TRUE(fn.ok());
  EXPECT_EQ(*fn, SimFunction::kJaccard);
}

TEST(RegistryTest, NameLookupNormalizesSeparatorsAndCase) {
  for (const char* name :
       {"jaro_winkler", "Jaro Winkler", "JARO-WINKLER", "jarowinkler"}) {
    auto fn = SimFunctionFromName(name);
    ASSERT_TRUE(fn.ok()) << name;
    EXPECT_EQ(*fn, SimFunction::kJaroWinkler) << name;
  }
  auto tfidf = SimFunctionFromName("TF-IDF");
  ASSERT_TRUE(tfidf.ok());
  EXPECT_EQ(*tfidf, SimFunction::kTfIdf);
}

TEST(RegistryTest, CaseFoldingIsAsciiOnly) {
  // Function names (NormalizeName) and the case-insensitive exact match
  // (EqualsIgnoreCase) fold 'A'-'Z' only.
  testing::UnderCAndLatin1Locales([] {
    auto fn = SimFunctionFromName("JACCARD");
    ASSERT_TRUE(fn.ok());
    EXPECT_EQ(*fn, SimFunction::kJaccard);
    EXPECT_FALSE(SimFunctionFromName("jaccard\xC0").ok());
    EXPECT_EQ(ExactMatchIgnoreCase("A", "a"), 1.0);
    EXPECT_EQ(ExactMatchIgnoreCase("\xC0", "\xE0"), 0.0);
    EXPECT_EQ(ExactMatchIgnoreCase("SONY \xC0", "sony \xC0"), 1.0);
  });
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(SimFunctionFromName("bogus").status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, RoundTripAllNames) {
  for (const SimFunction fn : AllSimFunctions()) {
    auto parsed = SimFunctionFromName(GetSimFunctionInfo(fn).name);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fn);
  }
}

TEST(ComputeSimilarityTest, StringOverloadBasics) {
  EXPECT_DOUBLE_EQ(ComputeSimilarity(SimFunction::kExactMatch, "a", "a"),
                   1.0);
  EXPECT_DOUBLE_EQ(ComputeSimilarity(SimFunction::kExactMatch, "a", "b"),
                   0.0);
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimFunction::kJaccard, "red apple", "apple red"),
      1.0);
  EXPECT_GT(ComputeSimilarity(SimFunction::kTrigram, "walmart", "walmort"),
            0.0);
  EXPECT_DOUBLE_EQ(ComputeSimilarity(SimFunction::kNumeric, "50", "100"),
                   0.5);
}

TEST(ComputeSimilarityTest, PrecomputedTokensMatchOnTheFly) {
  const std::string a = "Sony DSC Camera";
  const std::string b = "sony camera dsc-w800";
  const TokenList wa = AlnumTokenize(a);
  const TokenList wb = AlnumTokenize(b);
  const TokenList qa = QGramTokenize(a, 3);
  const TokenList qb = QGramTokenize(b, 3);
  for (const SimFunction fn :
       {SimFunction::kJaccard, SimFunction::kCosine, SimFunction::kDice,
        SimFunction::kOverlap, SimFunction::kTrigram}) {
    const double lazy = ComputeSimilarity(fn, a, b);
    const double pre = ComputeSimilarity(fn, SimArg{a, &wa, &qa},
                                         SimArg{b, &wb, &qb});
    EXPECT_DOUBLE_EQ(lazy, pre) << GetSimFunctionInfo(fn).name;
  }
}

TEST(ComputeSimilarityTest, TfIdfRequiresModel) {
  // Missing model is a defensive 0.0, not a crash.
  EXPECT_DOUBLE_EQ(ComputeSimilarity(SimFunction::kTfIdf, "a b", "a b"),
                   0.0);
  const TfIdfModel model = TfIdfModel::Build({{"a", "b"}, {"c"}});
  EXPECT_NEAR(
      ComputeSimilarity(SimFunction::kTfIdf, "a b", "a b", &model), 1.0,
      1e-12);
  EXPECT_GT(ComputeSimilarity(SimFunction::kSoftTfIdf, "a b", "a b", &model),
            0.9);
}

TEST(ComputeSimilarityTest, AllFunctionsStayInUnitInterval) {
  const TfIdfModel model =
      TfIdfModel::Build({{"sony", "camera"}, {"nikon", "lens"}});
  const char* samples[][2] = {
      {"", ""},
      {"a", ""},
      {"Sony DSC-W800", "sony dsc w800"},
      {"John Smith", "Jon Smyth"},
      {"12.5", "13.0"},
  };
  for (const SimFunction fn : AllSimFunctions()) {
    for (const auto& s : samples) {
      const double v = ComputeSimilarity(fn, s[0], s[1], &model);
      EXPECT_GE(v, 0.0) << GetSimFunctionInfo(fn).name << " on '" << s[0]
                        << "','" << s[1] << "'";
      EXPECT_LE(v, 1.0) << GetSimFunctionInfo(fn).name << " on '" << s[0]
                        << "','" << s[1] << "'";
    }
  }
}

}  // namespace
}  // namespace emdbg
