#include "src/core/state_io.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/incremental.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class StateIoTest : public ::testing::Test {
 protected:
  StateIoTest()
      : ds_(testing::SmallProducts()),
        // Per-test path: ctest runs suite members as parallel processes.
        path_(::testing::TempDir() + "/emdbg_state_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".bin") {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
  }

  ~StateIoTest() override { std::remove(path_.c_str()); }

  MatchingFunction SomeRules() {
    Rng rng(1);
    const CandidateSet sample = SamplePairs(ds_.candidates, 0.2, rng);
    RuleGeneratorConfig config;
    config.num_rules = 4;
    config.seed = 77;
    RuleGenerator gen(*ctx_, sample, config);
    return gen.Generate();
  }

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  std::string path_;
};

TEST_F(StateIoTest, RoundTripPreservesEverything) {
  const MatchingFunction fn = SomeRules();
  MemoMatcher matcher;
  MatchState state;
  matcher.RunWithState(fn, ds_.candidates, *ctx_, state);

  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  auto loaded = LoadMatchState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_pairs(), state.num_pairs());
  EXPECT_EQ(loaded->matches(), state.matches());
  EXPECT_EQ(loaded->memo().FilledCount(), state.memo().FilledCount());
  ASSERT_EQ(loaded->memo().num_features(), state.memo().num_features());
  for (FeatureId f = 0; f < state.memo().num_features(); ++f) {
    EXPECT_EQ(std::memcmp(loaded->memo().Column(f), state.memo().Column(f),
                          state.num_pairs() * sizeof(float)),
              0)
        << "feature " << f;
  }
  for (const RuleId rid : state.RuleIdsWithState()) {
    ASSERT_NE(loaded->FindRuleTrue(rid), nullptr);
    EXPECT_EQ(*loaded->FindRuleTrue(rid), *state.FindRuleTrue(rid));
  }
  for (const PredicateId pid : state.PredicateIdsWithState()) {
    ASSERT_NE(loaded->FindPredFalse(pid), nullptr);
    EXPECT_EQ(*loaded->FindPredFalse(pid), *state.FindPredFalse(pid));
  }
}

TEST_F(StateIoTest, MemoSectionIsPairMajorOnDisk) {
  // Golden bytes: the v2 memo section is the pair-major float matrix
  // (pair 0's features, then pair 1's, ...; absent = NaN), whatever the
  // layout in memory, so files saved before and after a layout change
  // load alike.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  MatchState state;
  state.Initialize(3, 4);
  DenseMemo& memo = state.memo();
  memo.Store(0, 0, 0.25);
  memo.Store(0, 3, 1.0);
  memo.Store(1, 1, 0.5);
  memo.Store(1, 2, 0.0);
  memo.Store(2, 0, 0.75);
  memo.Store(2, 3, 0.125);
  const float expected[3 * 4] = {
      0.25f, kNaN, kNaN, 1.0f,   // pair 0
      kNaN,  0.5f, 0.0f, kNaN,   // pair 1
      0.75f, kNaN, kNaN, 0.125f  // pair 2
  };
  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  const auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const size_t memo_pos = 8 + (16 + 4);  // magic, header + crc
  ASSERT_GE(bytes->size(), memo_pos + sizeof(expected) + 4);
  EXPECT_EQ(std::memcmp(bytes->data() + memo_pos, expected, sizeof(expected)),
            0);
  uint32_t crc = 0;
  std::memcpy(&crc, bytes->data() + memo_pos + sizeof(expected), 4);
  EXPECT_EQ(crc, Crc32c(expected, sizeof(expected)));

  const auto loaded = LoadMatchState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->memo().num_pairs(), 3u);
  ASSERT_EQ(loaded->memo().num_features(), 4u);
  EXPECT_EQ(loaded->memo().FilledCount(), 6u);
  for (FeatureId f = 0; f < 4; ++f) {
    for (size_t p = 0; p < 3; ++p) {
      const float got = loaded->memo().Column(f)[p];
      EXPECT_EQ(std::memcmp(&got, &expected[p * 4 + f], sizeof(float)), 0)
          << "pair " << p << " feature " << f;
    }
  }
  // Saving the loaded state gives the same bytes.
  const std::string first = *bytes;
  ASSERT_TRUE(SaveMatchState(*loaded, path_).ok());
  EXPECT_EQ(*ReadFileToString(path_), first);
}

TEST_F(StateIoTest, ResumedSessionContinuesIncrementally) {
  // Session 1: run, save rules + state.
  const std::string rules_path = path_ + ".rules";
  MatchingFunction fn = SomeRules();
  IncrementalMatcher first(*ctx_, ds_.candidates);
  first.FullRun(fn);
  ASSERT_TRUE(SaveMatchState(first.state(), path_).ok());
  ASSERT_TRUE(SaveRulesFile(first.function(), catalog_, rules_path).ok());

  // Session 2: fresh catalog/context/matcher, resume from disk.
  FeatureCatalog catalog2(ds_.a.schema(), ds_.b.schema());
  catalog2.InternAllSameAttribute();
  PairContext ctx2(ds_.a, ds_.b, catalog2);
  auto rules2 = LoadRulesFile(rules_path, catalog2);
  ASSERT_TRUE(rules2.ok());
  auto state2 = LoadMatchState(path_);
  ASSERT_TRUE(state2.ok());

  IncrementalMatcher resumed(ctx2, ds_.candidates);
  ASSERT_TRUE(resumed.Resume(*rules2, std::move(*state2)).ok());
  EXPECT_EQ(resumed.matches(), first.matches());

  // No recomputation needed to continue: an edit touches only deltas.
  ctx2.ResetComputeCount();
  const Rule& rule = resumed.function().rule(0);
  const Predicate& p = rule.predicate(0);
  const double t =
      IsLowerBound(p.op) ? p.threshold + 0.05 : p.threshold - 0.05;
  ASSERT_TRUE(resumed.SetThreshold(rule.id(), p.id, t).ok());

  // Oracle check after the post-resume edit.
  MemoMatcher oracle;
  EXPECT_EQ(resumed.matches(),
            oracle.Run(resumed.function(), ds_.candidates, ctx2).matches);
  std::remove(rules_path.c_str());
}

TEST_F(StateIoTest, ResumeRejectsWrongPairCount) {
  MatchingFunction fn = SomeRules();
  MatchState state;
  state.Initialize(10, catalog_.size());  // wrong size
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  EXPECT_EQ(inc.Resume(fn, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateIoTest, SaveUninitializedStateRejected) {
  MatchState empty;
  EXPECT_EQ(SaveMatchState(empty, path_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StateIoTest, LoadRejectsGarbage) {
  ASSERT_TRUE(WriteStringToFile(path_, "not a state file").ok());
  EXPECT_EQ(LoadMatchState(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(StateIoTest, LoadRejectsTruncatedFile) {
  const MatchingFunction fn = SomeRules();
  MemoMatcher matcher;
  MatchState state;
  matcher.RunWithState(fn, ds_.candidates, *ctx_, state);
  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  auto full = ReadFileToString(path_);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(
      WriteStringToFile(path_, full->substr(0, full->size() / 2)).ok());
  EXPECT_EQ(LoadMatchState(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(StateIoTest, LoadMissingFileIsIoError) {
  EXPECT_EQ(LoadMatchState("/no/such/state.bin").status().code(),
            StatusCode::kIoError);
}

TEST_F(StateIoTest, BitFlipsAnywhereAreDetected) {
  const MatchingFunction fn = SomeRules();
  MemoMatcher matcher;
  MatchState state;
  matcher.RunWithState(fn, ds_.candidates, *ctx_, state);
  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  auto clean = ReadFileToString(path_);
  ASSERT_TRUE(clean.ok());

  // Flip one bit at positions spread across every section of the file
  // (magic, header, memo, bitmaps, trailing checksums); each corruption
  // must surface as ParseError, never as a bad load or a crash.
  for (size_t step = 0; step < 32; ++step) {
    const size_t byte = (clean->size() - 1) * step / 31;
    std::string corrupt = *clean;
    corrupt[byte] ^= 0x04;
    ASSERT_TRUE(WriteStringToFile(path_, corrupt).ok());
    const auto loaded = LoadMatchState(path_);
    ASSERT_FALSE(loaded.ok()) << "undetected flip at byte " << byte;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "byte " << byte << ": " << loaded.status();
  }
}

TEST_F(StateIoTest, TruncationAtEveryBoundaryIsParseError) {
  const MatchingFunction fn = SomeRules();
  MemoMatcher matcher;
  MatchState state;
  matcher.RunWithState(fn, ds_.candidates, *ctx_, state);
  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  auto full = ReadFileToString(path_);
  ASSERT_TRUE(full.ok());

  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{8}, size_t{12}, size_t{16},
        size_t{24}, full->size() / 4, full->size() - 4,
        full->size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(path_, full->substr(0, keep)).ok());
    const auto loaded = LoadMatchState(path_);
    ASSERT_FALSE(loaded.ok()) << "accepted truncation to " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "truncated to " << keep << " bytes";
  }
}

TEST_F(StateIoTest, OversizedHeaderRejectedBeforeAllocation) {
  // A hand-crafted v2 file whose header claims ~10^24 memo bytes — with a
  // *valid* header checksum, so only the dimension validation stands
  // between the parser and a gargantuan allocation. The payload sections
  // are absent; the load must fail from the size check alone.
  std::string file("EMDBGST2", 8);
  std::string header;
  const uint64_t num_pairs = 1ull << 40;
  const uint64_t num_features = 1ull << 40;
  header.append(reinterpret_cast<const char*>(&num_pairs), 8);
  header.append(reinterpret_cast<const char*>(&num_features), 8);
  const uint32_t crc = Crc32c(header);
  header.append(reinterpret_cast<const char*>(&crc), 4);
  file += header;
  ASSERT_TRUE(WriteStringToFile(path_, file).ok());

  const auto loaded = LoadMatchState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);

  // Same again with dimensions whose product overflows 64 bits.
  std::string file2("EMDBGST2", 8);
  std::string header2;
  const uint64_t huge = ~0ull;
  header2.append(reinterpret_cast<const char*>(&huge), 8);
  header2.append(reinterpret_cast<const char*>(&huge), 8);
  const uint32_t crc2 = Crc32c(header2);
  header2.append(reinterpret_cast<const char*>(&crc2), 4);
  file2 += header2;
  ASSERT_TRUE(WriteStringToFile(path_, file2).ok());
  EXPECT_EQ(LoadMatchState(path_).status().code(),
            StatusCode::kParseError);
}

TEST_F(StateIoTest, CorruptSectionCountRejectedBeforeLoop) {
  // Grow the rule-bitmap count field to an absurd value; the loader must
  // reject it against the remaining file size before looping.
  const MatchingFunction fn = SomeRules();
  MemoMatcher matcher;
  MatchState state;
  matcher.RunWithState(fn, ds_.candidates, *ctx_, state);
  ASSERT_TRUE(SaveMatchState(state, path_).ok());
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  // The rule-count u64 sits right after magic + header(+crc) + memo(+crc)
  // + matches bitmap(+crc).
  const size_t num_pairs = state.num_pairs();
  const size_t memo_bytes = num_pairs * state.memo().num_features() * 4;
  const size_t match_bytes = ((num_pairs + 63) / 64) * 8;
  const size_t count_pos = 8 + (16 + 4) + (memo_bytes + 4) +
                           (match_bytes + 4);
  ASSERT_LT(count_pos + 8, bytes->size());
  const uint64_t absurd = 1ull << 60;
  std::memcpy(bytes->data() + count_pos, &absurd, 8);
  ASSERT_TRUE(WriteStringToFile(path_, *bytes).ok());
  const auto loaded = LoadMatchState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace emdbg
