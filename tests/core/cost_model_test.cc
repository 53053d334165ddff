#include "src/core/cost_model.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : ds_(testing::SmallProducts()) {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    Rng rng(5);
    sample_ = SamplePairs(ds_.candidates, 0.25, rng);
  }

  FeatureId Feat(SimFunction fn, const char* attr) {
    return *catalog_.InternByName(fn, attr, attr);
  }

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
};

TEST_F(CostModelTest, MeasuresFeatureCosts) {
  const FeatureId cheap = Feat(SimFunction::kExactMatch, "modelno");
  const FeatureId expensive = Feat(SimFunction::kSoftTfIdf, "title");
  const CostModel model =
      CostModel::Estimate({cheap, expensive}, *ctx_, sample_);
  EXPECT_TRUE(model.HasFeature(cheap));
  EXPECT_TRUE(model.HasFeature(expensive));
  EXPECT_GT(model.FeatureCost(expensive), model.FeatureCost(cheap));
  EXPECT_GT(model.lookup_cost_us(), 0.0);
  // Lookups are far cheaper than any real feature computation.
  EXPECT_LT(model.lookup_cost_us(), model.FeatureCost(expensive));
}

TEST_F(CostModelTest, SelectivityMatchesSampleExactly) {
  const FeatureId f = Feat(SimFunction::kJaccard, "title");
  const CostModel model = CostModel::Estimate({f}, *ctx_, sample_);
  const Predicate p{f, CompareOp::kGe, 0.5};
  // Recompute by hand over the sample.
  size_t pass = 0;
  for (size_t s = 0; s < sample_.size(); ++s) {
    if (ctx_->ComputeFeature(f, sample_.pair(s)) >= 0.5) ++pass;
  }
  EXPECT_NEAR(model.PredicateSelectivity(p),
              static_cast<double>(pass) / sample_.size(), 1.0 / 256.0);
}

TEST_F(CostModelTest, SelectivityMonotoneInThreshold) {
  const FeatureId f = Feat(SimFunction::kTrigram, "title");
  const CostModel model = CostModel::Estimate({f}, *ctx_, sample_);
  double prev = 1.0;
  for (double t : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double sel = model.PredicateSelectivity({f, CompareOp::kGe, t});
    EXPECT_LE(sel, prev + 1e-12);
    prev = sel;
  }
}

TEST_F(CostModelTest, JointSelectivityAtMostMarginal) {
  const FeatureId f1 = Feat(SimFunction::kJaccard, "title");
  const FeatureId f2 = Feat(SimFunction::kExactMatch, "brand");
  const CostModel model = CostModel::Estimate({f1, f2}, *ctx_, sample_);
  const Predicate p1{f1, CompareOp::kGe, 0.3};
  const Predicate p2{f2, CompareOp::kGe, 1.0};
  const double joint = model.JointSelectivity({p1, p2});
  EXPECT_LE(joint, model.PredicateSelectivity(p1) + 1e-12);
  EXPECT_LE(joint, model.PredicateSelectivity(p2) + 1e-12);
  EXPECT_DOUBLE_EQ(model.JointSelectivity({}), 1.0);
}

TEST_F(CostModelTest, PrefixAndReach) {
  const FeatureId f1 = Feat(SimFunction::kJaccard, "title");
  const FeatureId f2 = Feat(SimFunction::kExactMatch, "brand");
  const CostModel model = CostModel::Estimate({f1, f2}, *ctx_, sample_);
  Rule r;
  r.AddPredicate({f1, CompareOp::kGe, 0.3});
  r.AddPredicate({f2, CompareOp::kGe, 1.0});
  EXPECT_DOUBLE_EQ(model.PrefixSelectivity(r, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.PrefixSelectivity(r, 1),
                   model.PredicateSelectivity(r.predicate(0)));
  // Reach of the second feature = selectivity of everything before it.
  EXPECT_DOUBLE_EQ(model.ReachProbability(r, f2),
                   model.PrefixSelectivity(r, 1));
  EXPECT_DOUBLE_EQ(model.ReachProbability(r, f1), 1.0);
}

TEST_F(CostModelTest, RuleCostDecreasesWithSelectiveFirstPredicate) {
  const FeatureId cheap_selective = Feat(SimFunction::kExactMatch, "modelno");
  const FeatureId costly = Feat(SimFunction::kSoftTfIdf, "title");
  const CostModel model =
      CostModel::Estimate({cheap_selective, costly}, *ctx_, sample_);
  Rule good;
  good.AddPredicate({cheap_selective, CompareOp::kGe, 1.0});
  good.AddPredicate({costly, CompareOp::kGe, 0.5});
  Rule bad;
  bad.AddPredicate({costly, CompareOp::kGe, 0.5});
  bad.AddPredicate({cheap_selective, CompareOp::kGe, 1.0});
  EXPECT_LT(model.RuleCostNoMemo(good), model.RuleCostNoMemo(bad));
}

TEST_F(CostModelTest, CacheReducesRuleCost) {
  const FeatureId f = Feat(SimFunction::kTfIdf, "title");
  const CostModel model = CostModel::Estimate({f}, *ctx_, sample_);
  Rule r;
  r.AddPredicate({f, CompareOp::kGe, 0.5});
  CacheProbabilities cold;
  CacheProbabilities warm{{f, 1.0}};
  EXPECT_LT(model.RuleCostWithCache(r, warm),
            model.RuleCostWithCache(r, cold));
  // Fully warm cache costs exactly one lookup.
  EXPECT_NEAR(model.RuleCostWithCache(r, warm), model.lookup_cost_us(),
              1e-9);
}

TEST_F(CostModelTest, UpdateCacheFollowsAlphaRecursion) {
  const FeatureId f1 = Feat(SimFunction::kJaccard, "title");
  const FeatureId f2 = Feat(SimFunction::kExactMatch, "brand");
  const CostModel model = CostModel::Estimate({f1, f2}, *ctx_, sample_);
  Rule r;
  r.AddPredicate({f1, CompareOp::kGe, 0.3});
  r.AddPredicate({f2, CompareOp::kGe, 1.0});
  CacheProbabilities cache;
  model.UpdateCacheAfterRule(r, cache);
  // First feature always reached -> alpha = 1.
  EXPECT_DOUBLE_EQ(cache[f1], 1.0);
  // Second feature reached with the first predicate's selectivity.
  EXPECT_DOUBLE_EQ(cache[f2], model.ReachProbability(r, f2));
  // Second application: alpha' = alpha + (1-alpha)*reach.
  const double alpha = cache[f2];
  model.UpdateCacheAfterRule(r, cache);
  EXPECT_NEAR(cache[f2], alpha + (1 - alpha) * model.ReachProbability(r, f2),
              1e-12);
}

TEST_F(CostModelTest, MemoModelCheaperThanNoMemoWhenFeaturesShared) {
  // Two rules sharing an expensive feature: the memo-aware model must
  // predict a lower cost.
  const FeatureId f = Feat(SimFunction::kSoftTfIdf, "title");
  const FeatureId g = Feat(SimFunction::kExactMatch, "brand");
  const CostModel model = CostModel::Estimate({f, g}, *ctx_, sample_);
  MatchingFunction fn;
  Rule r1;
  r1.AddPredicate({f, CompareOp::kGe, 0.9});
  r1.AddPredicate({g, CompareOp::kGe, 1.0});
  fn.AddRule(r1);
  Rule r2;
  r2.AddPredicate({f, CompareOp::kGe, 0.7});
  fn.AddRule(r2);
  EXPECT_LT(model.FunctionCostWithMemo(fn), model.FunctionCostNoMemo(fn));
  EXPECT_GT(model.FunctionCostWithMemo(fn), 0.0);
}

TEST_F(CostModelTest, SimulatedCostAgreesWithAnalyticOnIndependentRules) {
  // Rules over disjoint features: the alpha recursion is exact, so the
  // simulated and analytic with-memo costs should agree closely.
  const FeatureId f = Feat(SimFunction::kJaccard, "title");
  const FeatureId g = Feat(SimFunction::kExactMatch, "modelno");
  const CostModel model = CostModel::Estimate({f, g}, *ctx_, sample_);
  MatchingFunction fn;
  Rule r1;
  r1.AddPredicate({f, CompareOp::kGe, 0.6});
  fn.AddRule(r1);
  Rule r2;
  r2.AddPredicate({g, CompareOp::kGe, 1.0});
  fn.AddRule(r2);
  const double analytic = model.FunctionCostWithMemo(fn);
  const double simulated = model.SimulatedCostWithMemo(fn);
  EXPECT_NEAR(analytic, simulated, 0.25 * std::max(analytic, simulated));
}

TEST_F(CostModelTest, EstimateRuntimeScalesLinearly) {
  const FeatureId f = Feat(SimFunction::kJaccard, "title");
  const CostModel model = CostModel::Estimate({f}, *ctx_, sample_);
  MatchingFunction fn;
  Rule r;
  r.AddPredicate({f, CompareOp::kGe, 0.5});
  fn.AddRule(r);
  const double t1 = model.EstimateRuntimeMs(fn, 1000, true);
  const double t2 = model.EstimateRuntimeMs(fn, 2000, true);
  EXPECT_NEAR(t2, 2 * t1, 1e-9);
}

TEST_F(CostModelTest, EnsureFeatureExtendsModel) {
  const FeatureId f = Feat(SimFunction::kJaccard, "title");
  CostModel model = CostModel::Estimate({f}, *ctx_, sample_);
  const FeatureId g = Feat(SimFunction::kJaro, "modelno");
  EXPECT_FALSE(model.HasFeature(g));
  model.EnsureFeature(g, *ctx_);
  EXPECT_TRUE(model.HasFeature(g));
  EXPECT_GT(model.FeatureCost(g), 0.0);
}

TEST_F(CostModelTest, EstimateForFunctionCoversUsedFeatures) {
  Rng rng(17);
  RuleGeneratorConfig config;
  config.num_rules = 5;
  config.seed = 17;
  RuleGenerator gen(*ctx_, sample_, config);
  const MatchingFunction fn = gen.Generate();
  const CostModel model =
      CostModel::EstimateForFunction(fn, *ctx_, sample_);
  for (const FeatureId f : fn.UsedFeatures()) {
    EXPECT_TRUE(model.HasFeature(f));
  }
}

}  // namespace
}  // namespace emdbg
