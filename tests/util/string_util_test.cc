#include "src/util/string_util.h"

#include <cctype>
#include <clocale>
#include <string>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace emdbg {
namespace {

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Hello World 123"), "hello world 123");
  EXPECT_EQ(ToLowerAscii(""), "");
  EXPECT_EQ(ToLowerAscii("ABC-def"), "abc-def");
}

TEST(StringUtilTest, TrimAscii) {
  EXPECT_EQ(TrimAscii("  abc  "), "abc");
  EXPECT_EQ(TrimAscii("\t\r\nx\n"), "x");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii(""), "");
  EXPECT_EQ(TrimAscii("no-trim"), "no-trim");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("jaccard(title)", "jaccard"));
  EXPECT_FALSE(StartsWith("jac", "jaccard"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "file.csv"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Jaccard", "jaccard"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringUtilTest, AsciiClassesAndFoldingIgnoreLocale) {
  testing::UnderCAndLatin1Locales([] {
    EXPECT_EQ(AsciiToLower('A'), 'a');
    EXPECT_EQ(AsciiToUpper('a'), 'A');
    EXPECT_TRUE(EqualsIgnoreCase("A", "a"));
    EXPECT_EQ(ToLowerAscii("\xC0"), "\xC0");
    EXPECT_EQ(AsciiToUpper('\xE0'), '\xE0');
    EXPECT_FALSE(EqualsIgnoreCase("\xC0", "\xE0"));
    for (int c = 0x80; c <= 0xFF; ++c) {
      EXPECT_FALSE(IsAsciiAlnum(static_cast<char>(c))) << c;
      EXPECT_FALSE(IsAsciiAlpha(static_cast<char>(c))) << c;
      EXPECT_FALSE(IsAsciiDigit(static_cast<char>(c))) << c;
    }
  });
}

TEST(StringUtilTest, AsciiClassesMatchCctypeInTheCLocale) {
  // The helpers replace <cctype> calls: in the C locale, every byte must
  // classify and fold as before.
  const std::string saved = std::setlocale(LC_CTYPE, nullptr);
  ASSERT_NE(std::setlocale(LC_CTYPE, "C"), nullptr);
  for (int c = 0; c <= 0xFF; ++c) {
    const char ch = static_cast<char>(c);
    EXPECT_EQ(IsAsciiAlpha(ch), std::isalpha(c) != 0) << c;
    EXPECT_EQ(IsAsciiDigit(ch), std::isdigit(c) != 0) << c;
    EXPECT_EQ(IsAsciiAlnum(ch), std::isalnum(c) != 0) << c;
    EXPECT_EQ(AsciiToLower(ch), static_cast<char>(std::tolower(c))) << c;
    EXPECT_EQ(AsciiToUpper(ch), static_cast<char>(std::toupper(c))) << c;
  }
  std::setlocale(LC_CTYPE, saved.c_str());
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("0.75", &v));
  EXPECT_DOUBLE_EQ(v, 0.75);
  EXPECT_TRUE(ParseDouble(" -1.5e2 ", &v));
  EXPECT_DOUBLE_EQ(v, -150.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

}  // namespace
}  // namespace emdbg
