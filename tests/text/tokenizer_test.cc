#include "src/text/tokenizer.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace emdbg {
namespace {

TEST(TokenizerTest, WhitespaceBasic) {
  EXPECT_EQ(WhitespaceTokenize("Sony DSC-W800 camera"),
            (TokenList{"Sony", "DSC-W800", "camera"}));
  EXPECT_TRUE(WhitespaceTokenize("").empty());
  EXPECT_TRUE(WhitespaceTokenize("   \t ").empty());
}

TEST(TokenizerTest, AlnumLowercasesAndSplitsOnPunctuation) {
  EXPECT_EQ(AlnumTokenize("Sony DSC-W800"),
            (TokenList{"sony", "dsc", "w800"}));
  EXPECT_EQ(AlnumTokenize("a.b,c"), (TokenList{"a", "b", "c"}));
  EXPECT_TRUE(AlnumTokenize("!!!").empty());
  EXPECT_TRUE(AlnumTokenize("").empty());
}

TEST(TokenizerTest, QGramPadding) {
  // "ab" with q=3: padded "##ab##" -> 4 grams.
  EXPECT_EQ(QGramTokenize("ab", 3),
            (TokenList{"##a", "#ab", "ab#", "b##"}));
}

TEST(TokenizerTest, QGramLowercases) {
  EXPECT_EQ(QGramTokenize("AB", 3), QGramTokenize("ab", 3));
}

TEST(TokenizerTest, CaseFoldingIsAsciiOnly) {
  testing::UnderCAndLatin1Locales([] {
    EXPECT_EQ(AlnumTokenize("A"), (TokenList{"a"}));
    EXPECT_EQ(QGramTokenize("A", 3), QGramTokenize("a", 3));
    // Bytes >= 0x80 are not alphanumeric: word separators, never folded.
    EXPECT_EQ(AlnumTokenize("x\xC0y\xE0z"), (TokenList{"x", "y", "z"}));
    EXPECT_TRUE(AlnumTokenize("\xC0\xE0").empty());
    // q-grams keep them raw, unfolded.
    EXPECT_EQ(QGramTokenize("\xC0", 3),
              (TokenList{"##\xC0", "#\xC0#", "\xC0##"}));
    EXPECT_NE(QGramTokenize("\xC0", 3), QGramTokenize("\xE0", 3));
  });
}

TEST(TokenizerTest, QGramEdgeCases) {
  EXPECT_TRUE(QGramTokenize("", 3).empty());
  EXPECT_TRUE(QGramTokenize("abc", 0).empty());
  // q=1 over "ab" is just the characters.
  EXPECT_EQ(QGramTokenize("ab", 1), (TokenList{"a", "b"}));
}

TEST(TokenizerTest, QGramCountIsLengthPlusQMinusOne) {
  const TokenList grams = QGramTokenize("abcdef", 3);
  EXPECT_EQ(grams.size(), 6u + 3 - 1);
}

TEST(TokenizerTest, DispatchMatchesDirectCalls) {
  const std::string s = "Hello, World 42";
  EXPECT_EQ(Tokenize(TokenizerKind::kWhitespace, s), WhitespaceTokenize(s));
  EXPECT_EQ(Tokenize(TokenizerKind::kAlnum, s), AlnumTokenize(s));
  EXPECT_EQ(Tokenize(TokenizerKind::kQGram3, s), QGramTokenize(s, 3));
}

TEST(TokenizerTest, ToSortedUnique) {
  EXPECT_EQ(ToSortedUnique({"b", "a", "b", "c", "a"}),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(ToSortedUnique({}).empty());
}

TEST(TokenizerTest, KindNames) {
  EXPECT_STREQ(TokenizerKindName(TokenizerKind::kWhitespace), "whitespace");
  EXPECT_STREQ(TokenizerKindName(TokenizerKind::kQGram3), "qgram3");
}

}  // namespace
}  // namespace emdbg
