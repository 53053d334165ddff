#include "src/util/cancellation.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/adaptive_matcher.h"
#include "src/core/block_matcher.h"
#include "src/core/cost_model.h"
#include "src/core/debug_session.h"
#include "src/core/early_exit_matcher.h"
#include "src/core/memo_matcher.h"
#include "src/core/precompute_matcher.h"
#include "src/core/rudimentary_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/util/stopwatch.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// A dataset big enough that a millisecond-scale deadline reliably
/// expires mid-run (tens of thousands of pairs, string-heavy features).
GeneratedDataset BigProducts(uint64_t seed = 7, size_t pairs = 20000) {
  DatasetProfile p;
  p.name = "cancel_products";
  p.table_a_rows = 250;
  p.table_b_rows = 500;
  p.candidate_pairs = pairs;
  p.twin_fraction = 0.4;
  p.attributes = {
      {"title", AttrKind::kTitle, 0.5, 0.02},
      {"modelno", AttrKind::kModelNo, 0.3, 0.05},
      {"brand", AttrKind::kBrand, 0.25, 0.02},
      {"price", AttrKind::kPrice, 0.5, 0.1},
  };
  p.num_categories = 6;
  p.seed = seed;
  return GenerateDataset(p);
}

class CancellationTest : public ::testing::Test {
 protected:
  CancellationTest() : ds_(testing::SmallProducts()) {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    Rng rng(1);
    sample_ = SamplePairs(ds_.candidates, 0.2, rng);
  }

  MatchingFunction Rules(size_t n, uint64_t seed) {
    RuleGeneratorConfig config;
    config.num_rules = n;
    config.seed = seed;
    RuleGenerator gen(*ctx_, sample_, config);
    return gen.Generate();
  }

  /// Every matcher implementation, freshly constructed.
  std::vector<std::unique_ptr<Matcher>> AllMatchers(
      const CostModel& model) {
    std::vector<std::unique_ptr<Matcher>> out;
    out.push_back(std::make_unique<RudimentaryMatcher>());
    out.push_back(std::make_unique<EarlyExitMatcher>());
    out.push_back(std::make_unique<MemoMatcher>());
    out.push_back(std::make_unique<MemoMatcher>(
        MemoMatcher::Options{.check_cache_first = true}));
    out.push_back(std::make_unique<PrecomputeMatcher>(
        PrecomputeMatcher::Scope::kProduction));
    out.push_back(std::make_unique<AdaptiveMemoMatcher>(model));
    out.push_back(std::make_unique<BlockMatcher>());
    out.push_back(std::make_unique<BlockMatcher>(
        BlockMatcher::Options{.pool = &pool_}));
    return out;
  }

  ThreadPool pool_{4};
  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
};

TEST_F(CancellationTest, DefaultControlRunsToCompletion) {
  const MatchingFunction fn = Rules(6, 3);
  const CostModel model = CostModel::EstimateForFunction(fn, *ctx_, sample_);
  for (auto& matcher : AllMatchers(model)) {
    const MatchResult r =
        matcher->Run(fn, ds_.candidates, *ctx_, RunControl());
    EXPECT_FALSE(r.partial) << matcher->name();
    EXPECT_TRUE(r.status.ok()) << matcher->name();
    EXPECT_EQ(r.pairs_completed, ds_.candidates.size()) << matcher->name();
  }
}

TEST_F(CancellationTest, PreCancelledTokenStopsEveryMatcherImmediately) {
  const MatchingFunction fn = Rules(6, 3);
  const CostModel model = CostModel::EstimateForFunction(fn, *ctx_, sample_);
  CancellationToken token;
  token.RequestCancel();
  const RunControl control(token);
  for (auto& matcher : AllMatchers(model)) {
    const MatchResult r = matcher->Run(fn, ds_.candidates, *ctx_, control);
    EXPECT_TRUE(r.partial) << matcher->name();
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << matcher->name();
    EXPECT_EQ(r.pairs_completed, 0u) << matcher->name();
    EXPECT_EQ(r.evaluated.Count(), 0u) << matcher->name();
    EXPECT_EQ(r.matches.Count(), 0u) << matcher->name();
  }
}

TEST_F(CancellationTest, ExpiredDeadlineReportsDeadlineExceeded) {
  const MatchingFunction fn = Rules(6, 3);
  const CostModel model = CostModel::EstimateForFunction(fn, *ctx_, sample_);
  const RunControl control(Deadline::AfterMillis(0));
  for (auto& matcher : AllMatchers(model)) {
    const MatchResult r = matcher->Run(fn, ds_.candidates, *ctx_, control);
    EXPECT_TRUE(r.partial) << matcher->name();
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << matcher->name();
  }
}

TEST_F(CancellationTest, CancelledBeatsExpiredDeadline) {
  const MatchingFunction fn = Rules(4, 5);
  CancellationToken token;
  token.RequestCancel();
  const RunControl control(token, Deadline::AfterMillis(0));
  MemoMatcher matcher;
  const MatchResult r = matcher.Run(fn, ds_.candidates, *ctx_, control);
  ASSERT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
}

/// The partial-prefix contract on serial matchers: a deadline that
/// expires mid-run yields a prefix of evaluated pairs whose bits agree
/// with an uncontrolled reference run.
TEST_F(CancellationTest, DeadlineMidRunYieldsCorrectPrefix) {
  GeneratedDataset big = BigProducts();
  FeatureCatalog catalog(big.a.schema(), big.b.schema());
  catalog.InternAllSameAttribute();
  Rng rng(2);
  const CandidateSet sample = SamplePairs(big.candidates, 0.02, rng);

  PairContext ref_ctx(big.a, big.b, catalog);
  RuleGeneratorConfig config;
  config.num_rules = 8;
  config.seed = 21;
  const MatchingFunction fn =
      RuleGenerator(ref_ctx, sample, config).Generate();
  MemoMatcher reference;
  const Bitmap expected =
      reference.Run(fn, big.candidates, ref_ctx).matches;

  // Fresh context: no warm memo, so the controlled run pays full price.
  PairContext ctx(big.a, big.b, catalog);
  MemoMatcher matcher;
  const RunControl control(Deadline::AfterMillis(2));
  const MatchResult r = matcher.Run(fn, big.candidates, ctx, control);

  ASSERT_TRUE(r.partial) << "the 2ms deadline did not expire over "
                         << big.candidates.size() << " cold pairs";
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(r.pairs_completed, big.candidates.size());
  EXPECT_EQ(r.evaluated.Count(), r.pairs_completed);
  for (size_t i = 0; i < big.candidates.size(); ++i) {
    if (i < r.pairs_completed) {
      ASSERT_TRUE(r.evaluated.Get(i)) << "hole in prefix at " << i;
      ASSERT_EQ(r.matches.Get(i), expected.Get(i))
          << "wrong bit for completed pair " << i;
    } else {
      ASSERT_FALSE(r.evaluated.Get(i)) << "bit past prefix at " << i;
      ASSERT_FALSE(r.matches.Get(i)) << "match bit past prefix at " << i;
    }
  }

  // Everything computed before the stop is kept: a retry with the warm
  // memo completes and agrees with the reference.
  const MatchResult retry = matcher.Run(fn, big.candidates, ctx);
  EXPECT_FALSE(retry.partial);
  EXPECT_EQ(retry.matches, expected);
}

TEST_F(CancellationTest, CancelFromAnotherThreadStopsSerialRun) {
  GeneratedDataset big = BigProducts(11);
  FeatureCatalog catalog(big.a.schema(), big.b.schema());
  catalog.InternAllSameAttribute();
  PairContext ctx(big.a, big.b, catalog);
  Rng rng(3);
  const CandidateSet sample = SamplePairs(big.candidates, 0.02, rng);
  RuleGeneratorConfig config;
  config.num_rules = 8;
  config.seed = 23;
  const MatchingFunction fn =
      RuleGenerator(ctx, sample, config).Generate();

  CancellationToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.RequestCancel();
  });
  MemoMatcher matcher;
  const MatchResult r =
      matcher.Run(fn, big.candidates, ctx, RunControl(token));
  canceller.join();

  // The run either finished before the cancel landed (fast machine) or
  // stopped with a valid prefix; both must be internally consistent.
  if (r.partial) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.evaluated.Count(), r.pairs_completed);
    EXPECT_LT(r.pairs_completed, big.candidates.size());
  } else {
    EXPECT_EQ(r.pairs_completed, big.candidates.size());
  }
}

/// BlockMatcher over a pool: a cancel mid-run must drain all workers (Run
/// returns only after joins — TSan validates the absence of races) and
/// every pair flagged evaluated must carry the correct bit.
TEST_F(CancellationTest, ParallelCancelMidRunDrainsWorkersCorrectly) {
  GeneratedDataset big = BigProducts(13);
  FeatureCatalog catalog(big.a.schema(), big.b.schema());
  catalog.InternAllSameAttribute();
  Rng rng(4);
  const CandidateSet sample = SamplePairs(big.candidates, 0.02, rng);

  PairContext ref_ctx(big.a, big.b, catalog);
  RuleGeneratorConfig config;
  config.num_rules = 8;
  config.seed = 25;
  const MatchingFunction fn =
      RuleGenerator(ref_ctx, sample, config).Generate();
  MemoMatcher reference;
  const Bitmap expected =
      reference.Run(fn, big.candidates, ref_ctx).matches;

  PairContext ctx(big.a, big.b, catalog);
  CancellationToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.RequestCancel();
  });
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  const MatchResult r =
      parallel.Run(fn, big.candidates, ctx, RunControl(token));
  canceller.join();

  if (r.partial) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.evaluated.Count(), r.pairs_completed);
    size_t checked = 0;
    for (size_t i = 0; i < big.candidates.size(); ++i) {
      if (!r.evaluated.Get(i)) {
        ASSERT_FALSE(r.matches.Get(i)) << "match bit without evaluation";
        continue;
      }
      ASSERT_EQ(r.matches.Get(i), expected.Get(i))
          << "wrong bit for evaluated pair " << i;
      ++checked;
    }
    EXPECT_EQ(checked, r.pairs_completed);
  } else {
    EXPECT_EQ(r.matches, expected);
  }
}

TEST_F(CancellationTest, ParallelPreCancelledAllThreadCounts) {
  const MatchingFunction fn = Rules(6, 3);
  CancellationToken token;
  token.RequestCancel();
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
    const MatchResult r =
        parallel.Run(fn, ds_.candidates, *ctx_, RunControl(token));
    EXPECT_TRUE(r.partial) << threads << " threads";
    EXPECT_EQ(r.pairs_completed, 0u) << threads << " threads";
  }
}

TEST_F(CancellationTest, TokenResetAllowsReuse) {
  const MatchingFunction fn = Rules(4, 5);
  CancellationToken token;
  token.RequestCancel();
  MemoMatcher matcher;
  EXPECT_TRUE(
      matcher.Run(fn, ds_.candidates, *ctx_, RunControl(token)).partial);
  token.Reset();
  const MatchResult r =
      matcher.Run(fn, ds_.candidates, *ctx_, RunControl(token));
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.pairs_completed, ds_.candidates.size());
}

/// Acceptance: a DebugSession first run under a 50ms deadline comes back
/// promptly with a partial result, the session stays usable, and a
/// subsequent unconstrained run completes with the same answer as an
/// untouched session.
TEST_F(CancellationTest, DebugSessionDeadlineReturnsPromptPartial) {
  // Quadratic string similarities over titles on tens of thousands of
  // pairs: the cold first run takes hundreds of ms (the affine-gap
  // alignment DP carries most of it), so a 50ms deadline reliably trips
  // mid-run.
  const char* kRule1 =
      "r1: jaro(title, title) >= 0.02 AND "
      "jaro_winkler(title, title) >= 0.02 AND "
      "levenshtein(title, title) >= 0.02 AND "
      "smith_waterman(title, title) >= 0.02";
  const char* kRule2 = "r2: exact_match(modelno, modelno) >= 1";
  GeneratedDataset big = BigProducts(17, 60000);
  GeneratedDataset big2 = BigProducts(17, 60000);  // identical twin

  DebugSession session(std::move(big.a), std::move(big.b),
                       std::move(big.candidates));
  ASSERT_TRUE(session.AddRuleText(kRule1).ok());
  ASSERT_TRUE(session.AddRuleText(kRule2).ok());

  Stopwatch timer;
  const MatchResult partial =
      session.Run(RunControl(Deadline::AfterMillis(50)));
  const double elapsed = timer.ElapsedMillis();

  ASSERT_TRUE(partial.partial)
      << "50ms deadline did not trip on the big dataset";
  EXPECT_EQ(partial.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(session.has_run()) << "partial first run must not start "
                                     "the incremental regime";
  // Generous 10x bound to absorb CI noise; typical overrun is < 1 pair's
  // evaluation past the deadline.
  EXPECT_LT(elapsed, 500.0);

  // The session survives: a later unconstrained run completes and agrees
  // with a fresh session that never saw a deadline.
  const MatchResult full = session.Run(RunControl());
  EXPECT_FALSE(full.partial);
  EXPECT_TRUE(session.has_run());

  DebugSession fresh(std::move(big2.a), std::move(big2.b),
                     std::move(big2.candidates));
  ASSERT_TRUE(fresh.AddRuleText(kRule1).ok());
  ASSERT_TRUE(fresh.AddRuleText(kRule2).ok());
  EXPECT_EQ(full.matches, fresh.Run());
}

}  // namespace
}  // namespace emdbg
