#include "src/text/soundex.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace emdbg {
namespace {

TEST(SoundexCodeTest, ClassicCodes) {
  EXPECT_EQ(SoundexCode("Robert"), "R163");
  EXPECT_EQ(SoundexCode("Rupert"), "R163");
  EXPECT_EQ(SoundexCode("Ashcraft"), "A261");  // H is transparent
  EXPECT_EQ(SoundexCode("Ashcroft"), "A261");
  EXPECT_EQ(SoundexCode("Tymczak"), "T522");
  EXPECT_EQ(SoundexCode("Pfister"), "P236");
  EXPECT_EQ(SoundexCode("Honeyman"), "H555");
}

TEST(SoundexCodeTest, CaseInsensitive) {
  EXPECT_EQ(SoundexCode("ROBERT"), SoundexCode("robert"));
}

TEST(SoundexCodeTest, PadsShortCodes) {
  EXPECT_EQ(SoundexCode("Lee"), "L000");
  EXPECT_EQ(SoundexCode("a"), "A000");
}

TEST(SoundexCodeTest, IgnoresNonLetters) {
  EXPECT_EQ(SoundexCode("O'Brien"), SoundexCode("OBrien"));
  EXPECT_EQ(SoundexCode("123"), "");
  EXPECT_EQ(SoundexCode(""), "");
}

TEST(SoundexCodeTest, CaseFoldingIsAsciiOnly) {
  testing::UnderCAndLatin1Locales([] {
    EXPECT_EQ(SoundexCode("A"), SoundexCode("a"));
    EXPECT_EQ(SoundexCode("a"), "A000");
    // Bytes >= 0x80 are not letters: skipped, never a code's first letter.
    EXPECT_EQ(SoundexCode("\xC0"), "");
    EXPECT_EQ(SoundexCode("\xE0" "b\xC0"), "B000");
    EXPECT_EQ(SoundexSimilarity("\xC0 b", "\xE0 B"), 1.0);
  });
}

TEST(SoundexCodeTest, AdjacentSameDigitsCollapse) {
  // "Jackson": c,k,s all map to 2 and collapse.
  EXPECT_EQ(SoundexCode("Jackson"), "J250");
}

TEST(SoundexSimilarityTest, PhoneticMatch) {
  EXPECT_DOUBLE_EQ(SoundexSimilarity("Smith", "Smyth"), 1.0);
  EXPECT_DOUBLE_EQ(SoundexSimilarity("Robert", "Rupert"), 1.0);
}

TEST(SoundexSimilarityTest, DifferentNames) {
  EXPECT_DOUBLE_EQ(SoundexSimilarity("Smith", "Jones"), 0.0);
}

TEST(SoundexSimilarityTest, MultiTokenJaccard) {
  // "John Smith" vs "Jon Smyth": both tokens match phonetically -> 1.0.
  EXPECT_DOUBLE_EQ(SoundexSimilarity("John Smith", "Jon Smyth"), 1.0);
  // One shared phonetic token of two distinct codes -> 1/3.
  EXPECT_NEAR(SoundexSimilarity("John Smith", "John Jones"), 1.0 / 3.0,
              1e-12);
}

TEST(SoundexSimilarityTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(SoundexSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(SoundexSimilarity("Smith", ""), 0.0);
}

}  // namespace
}  // namespace emdbg
