#include "src/data/candidate_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/util/csv.h"

namespace emdbg {
namespace {

class CandidateIoTest : public ::testing::Test {
 protected:
  CandidateIoTest()
      // Per-test path: ctest runs suite members as parallel processes.
      : path_(::testing::TempDir() + "/emdbg_candidates_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".csv") {}
  ~CandidateIoTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CandidateIoTest, RoundTripWithLabels) {
  CandidateSet pairs({{0, 5}, {1, 3}, {7, 7}});
  PairLabels labels(3);
  labels.Set(1);
  ASSERT_TRUE(SaveCandidatesCsv(pairs, &labels, path_).ok());
  auto loaded = LoadCandidatesCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->has_labels);
  EXPECT_EQ(loaded->candidates.pairs(), pairs.pairs());
  EXPECT_EQ(loaded->labels, labels);
}

TEST_F(CandidateIoTest, RoundTripWithoutLabels) {
  CandidateSet pairs({{2, 9}});
  ASSERT_TRUE(SaveCandidatesCsv(pairs, nullptr, path_).ok());
  auto loaded = LoadCandidatesCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_labels);
  EXPECT_EQ(loaded->candidates.pairs(), pairs.pairs());
}

TEST_F(CandidateIoTest, WritesExactBytes) {
  // The full uint32 range of indices, with and without labels.
  CandidateSet pairs({{0, 0}, {4294967295u, 7}, {12, 4294967295u}});
  ASSERT_TRUE(SaveCandidatesCsv(pairs, nullptr, path_).ok());
  auto text = ReadFileToString(path_);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "a,b\n0,0\n4294967295,7\n12,4294967295\n");

  PairLabels labels(3);
  labels.Set(0);
  labels.Set(2);
  ASSERT_TRUE(SaveCandidatesCsv(pairs, &labels, path_).ok());
  text = ReadFileToString(path_);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text,
            "a,b,label\n0,0,1\n4294967295,7,0\n12,4294967295,1\n");

  ASSERT_TRUE(SaveCandidatesCsv(CandidateSet(), nullptr, path_).ok());
  text = ReadFileToString(path_);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "a,b\n");
}

TEST_F(CandidateIoTest, LabelSizeMismatchRejected) {
  CandidateSet pairs({{0, 0}});
  PairLabels labels(5);
  EXPECT_EQ(SaveCandidatesCsv(pairs, &labels, path_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CandidateIoTest, BadHeaderRejected) {
  ASSERT_TRUE(WriteStringToFile(path_, "x,y\n1,2\n").ok());
  EXPECT_EQ(LoadCandidatesCsv(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(CandidateIoTest, BadLabelRejected) {
  ASSERT_TRUE(WriteStringToFile(path_, "a,b,label\n1,2,7\n").ok());
  EXPECT_EQ(LoadCandidatesCsv(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(CandidateIoTest, BadIndicesRejected) {
  ASSERT_TRUE(WriteStringToFile(path_, "a,b\n-1,2\n").ok());
  EXPECT_EQ(LoadCandidatesCsv(path_).status().code(),
            StatusCode::kParseError);
  ASSERT_TRUE(WriteStringToFile(path_, "a,b\nxyz,2\n").ok());
  EXPECT_EQ(LoadCandidatesCsv(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(CandidateIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadCandidatesCsv("/no/such/file").status().code(),
            StatusCode::kIoError);
}

TEST_F(CandidateIoTest, EmptyCandidateSetRoundTrips) {
  ASSERT_TRUE(SaveCandidatesCsv(CandidateSet(), nullptr, path_).ok());
  auto loaded = LoadCandidatesCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->candidates.empty());
}

}  // namespace
}  // namespace emdbg
