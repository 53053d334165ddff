#include "src/block/sorted_neighborhood.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace emdbg {
namespace {

Table MakeTable(const std::string& name,
                const std::vector<std::string>& names) {
  Table t(name, Schema({"name"}));
  for (const std::string& n : names) {
    EXPECT_TRUE(t.AppendRow({n}).ok());
  }
  return t;
}

TEST(SortedNeighborhoodTest, AdjacentKeysPair) {
  const Table a = MakeTable("a", {"smith john", "zzz far away"});
  const Table b = MakeTable("b", {"smith jon", "aaa other"});
  auto pairs = SortedNeighborhoodBlocker("name", 2).Block(a, b);
  ASSERT_TRUE(pairs.ok());
  // "smith john"/"smith jon" sort adjacently (keys "smithjoh"/"smithjon")
  // and must pair; "zzz..."/"aaa..." are far apart.
  bool found = false;
  for (const PairId& p : pairs->pairs()) {
    if (p == PairId{0, 0}) found = true;
    EXPECT_FALSE(p == (PairId{1, 1}));
  }
  EXPECT_TRUE(found);
}

TEST(SortedNeighborhoodTest, TypoTolerantUnlikeKeyBlocking) {
  // A trailing typo keeps the sort position close.
  const Table a = MakeTable("a", {"walmart store"});
  const Table b = MakeTable("b", {"walmarr store"});
  auto pairs = SortedNeighborhoodBlocker("name", 3).Block(a, b);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 1u);
}

TEST(SortedNeighborhoodTest, WindowBoundsCandidates) {
  // n records each side with identical key prefixes: window w yields at
  // most (w-1) partners per record.
  std::vector<std::string> names;
  for (int i = 0; i < 10; ++i) names.push_back("same prefix");
  const Table a = MakeTable("a", names);
  const Table b = MakeTable("b", names);
  auto w2 = SortedNeighborhoodBlocker("name", 2).Block(a, b);
  auto w5 = SortedNeighborhoodBlocker("name", 5).Block(a, b);
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(w5.ok());
  EXPECT_LT(w2->size(), w5->size());
  // Window 2: each entry pairs with at most its immediate predecessor.
  EXPECT_LE(w2->size(), 19u);
}

TEST(SortedNeighborhoodTest, EmptyKeysSkipped) {
  const Table a = MakeTable("a", {"", "!!"});
  const Table b = MakeTable("b", {"  "});
  auto pairs = SortedNeighborhoodBlocker("name", 4).Block(a, b);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST(SortedNeighborhoodTest, KeysFoldAsciiOnly) {
  testing::UnderCAndLatin1Locales([] {
    // Folded, "MANGO" sorts between "apple" and "mango" and so sits next
    // to both; unfolded it would sort first, away from "mango".
    const Table a = MakeTable("a", {"MANGO"});
    const Table b = MakeTable("b", {"mango", "apple"});
    auto pairs = SortedNeighborhoodBlocker("name", 2).Block(a, b);
    ASSERT_TRUE(pairs.ok());
    EXPECT_EQ(pairs->size(), 2u);
    EXPECT_NE(std::find(pairs->pairs().begin(), pairs->pairs().end(),
                        PairId{0, 0}),
              pairs->pairs().end());
    // Bytes >= 0x80 are not alphanumeric: these keys are empty.
    auto latin = SortedNeighborhoodBlocker("name", 4)
                     .Block(MakeTable("a", {"\xC0\xC1"}),
                            MakeTable("b", {"\xE0\xE1"}));
    ASSERT_TRUE(latin.ok());
    EXPECT_TRUE(latin->empty());
  });
}

TEST(SortedNeighborhoodTest, MissingAttributeIsNotFound) {
  const Table a = MakeTable("a", {});
  const Table b = MakeTable("b", {});
  EXPECT_EQ(SortedNeighborhoodBlocker("bogus").Block(a, b).status().code(),
            StatusCode::kNotFound);
}

TEST(SortedNeighborhoodTest, MinimumWindowIsTwo) {
  const SortedNeighborhoodBlocker blocker("name", 0);
  EXPECT_EQ(blocker.window(), 2u);
}

TEST(SortedNeighborhoodTest, PairsAlwaysAtoB) {
  const Table a = MakeTable("a", {"alpha", "beta", "gamma"});
  const Table b = MakeTable("b", {"alphb", "betb", "gammb"});
  auto pairs = SortedNeighborhoodBlocker("name", 3).Block(a, b);
  ASSERT_TRUE(pairs.ok());
  for (const PairId& p : pairs->pairs()) {
    EXPECT_LT(p.a, a.num_rows());
    EXPECT_LT(p.b, b.num_rows());
  }
}

}  // namespace
}  // namespace emdbg
