#include "src/core/incremental.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// Fixture with the small generated dataset, a catalog/context, and a rule
/// generator for random edits. The oracle is a from-scratch MemoMatcher
/// run of the incremental matcher's current function.
class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest() : ds_(testing::SmallProducts()) {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    Rng rng(1);
    sample_ = SamplePairs(ds_.candidates, 0.25, rng);
    RuleGeneratorConfig config;
    config.num_rules = 6;
    config.min_predicates = 2;
    config.max_predicates = 4;
    config.seed = 77;
    gen_ = std::make_unique<RuleGenerator>(*ctx_, sample_, config);
  }

  Bitmap OracleMatches(const MatchingFunction& fn) {
    MemoMatcher matcher;
    return matcher.Run(fn, ds_.candidates, *ctx_).matches;
  }

  void ExpectConsistent(const IncrementalMatcher& inc) {
    EXPECT_EQ(inc.matches(), OracleMatches(inc.function()));
  }

  /// A fresh ComputeFeature of (pair i, feature f), float-quantized as
  /// the memo stores it; cached, since the context is deterministic.
  float Fresh(size_t i, FeatureId f) {
    const size_t width = catalog_.size();
    if (fresh_width_ != width) {
      fresh_.assign(ds_.candidates.size() * width,
                    std::numeric_limits<float>::quiet_NaN());
      fresh_width_ = width;
    }
    float& v = fresh_[i * width + f];
    if (std::isnan(v)) {
      v = static_cast<float>(ctx_->ComputeFeature(f, ds_.candidates.pair(i)));
    }
    return v;
  }

  /// The invariants the edits maintain, beyond I1 (matches):
  ///   I2: each matched pair has exactly one RuleTrue bit, no unmatched
  ///       pair has one, and that rule is true on the pair;
  ///   I3: every set PredFalse bit names a predicate that is currently
  ///       false on that pair;
  ///   and every memo value equals a fresh ComputeFeature.
  void ExpectInvariants(const IncrementalMatcher& inc) {
    const MatchingFunction& fn = inc.function();
    const MatchState& state = inc.state();
    const size_t n = ds_.candidates.size();
    const auto passes = [&](const Predicate& p, size_t i) {
      return p.Test(static_cast<double>(Fresh(i, p.feature)));
    };
    std::vector<int> responsible(n, 0);
    for (const Rule& r : fn.rules()) {
      const Bitmap* rule_true = state.FindRuleTrue(r.id());
      if (rule_true != nullptr) {
        for (size_t i = rule_true->FindNext(0); i < n;
             i = rule_true->FindNext(i + 1)) {
          ++responsible[i];
          ASSERT_FALSE(r.empty()) << "empty rule " << r.id() << " pair " << i;
          for (const Predicate& p : r.predicates()) {
            ASSERT_TRUE(passes(p, i)) << "I2: rule " << r.id()
                                      << " is false on pair " << i;
          }
        }
      }
      for (const Predicate& p : r.predicates()) {
        const Bitmap* pred_false = state.FindPredFalse(p.id);
        if (pred_false == nullptr) continue;
        for (size_t i = pred_false->FindNext(0); i < n;
             i = pred_false->FindNext(i + 1)) {
          ASSERT_FALSE(passes(p, i)) << "I3: predicate " << p.id
                                     << " passes on pair " << i;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(responsible[i], inc.matches().Get(i) ? 1 : 0)
          << "I2: pair " << i;
    }
    const DenseMemo& memo = state.memo();
    for (size_t i = 0; i < n; ++i) {
      for (FeatureId f = 0; f < memo.num_features(); ++f) {
        double v = 0.0;
        if (!memo.Lookup(i, f, &v)) continue;
        ASSERT_EQ(static_cast<float>(v), Fresh(i, f))
            << "memo pair " << i << " feature " << f;
      }
    }
  }

  /// The central property test: a long random mixed edit sequence,
  /// verified against a from-scratch run and the invariants after every
  /// edit.
  void RandomEditSequence(IncrementalMatcher& inc) {
    inc.FullRun(gen_->Generate());
    ExpectInvariants(inc);
    Rng rng(8);
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.Uniform(6);
      const size_t num_rules = inc.function().num_rules();
      if (op == 0 || num_rules == 0) {
        ASSERT_TRUE(inc.AddRule(gen_->GenerateRule(rng)).ok());
      } else if (op == 1 && num_rules > 1) {
        const RuleId rid =
            inc.function().rule(rng.Uniform(num_rules)).id();
        ASSERT_TRUE(inc.RemoveRule(rid).ok());
      } else if (op == 2) {
        const RuleId rid =
            inc.function().rule(rng.Uniform(num_rules)).id();
        const Rule donor = gen_->GenerateRule(rng);
        ASSERT_TRUE(inc.AddPredicate(rid, donor.predicate(0)).ok());
      } else if (op == 3) {
        const Rule& rule = inc.function().rule(rng.Uniform(num_rules));
        if (rule.empty()) continue;
        const PredicateId pid =
            rule.predicate(rng.Uniform(rule.size())).id;
        ASSERT_TRUE(inc.RemovePredicate(rule.id(), pid).ok());
      } else {
        const Rule& rule = inc.function().rule(rng.Uniform(num_rules));
        if (rule.empty()) continue;
        const Predicate& p = rule.predicate(rng.Uniform(rule.size()));
        // Random direction: tighten or relax by a random amount.
        const double t = rng.NextDouble();
        ASSERT_TRUE(inc.SetThreshold(rule.id(), p.id, t).ok());
      }
      ASSERT_EQ(inc.matches(), OracleMatches(inc.function()))
          << "diverged at step " << step << " (op " << op << ")";
      ExpectInvariants(inc);
      if (HasFatalFailure()) {
        FAIL() << "invariant broken at step " << step << " (op " << op
               << ")";
      }
    }
  }

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
  std::unique_ptr<RuleGenerator> gen_;
  std::vector<float> fresh_;
  size_t fresh_width_ = 0;
};

TEST_F(IncrementalTest, EditsBeforeFullRunAreRejected) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  Rule r;
  r.AddPredicate({0, CompareOp::kGe, 0.5});
  EXPECT_EQ(inc.AddRule(r).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(inc.RemoveRule(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalTest, FullRunMatchesOracle) {
  const MatchingFunction fn = gen_->Generate();
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(fn);
  ExpectConsistent(inc);
}

TEST_F(IncrementalTest, AddRuleMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(inc.AddRule(gen_->GenerateRule(rng)).ok());
    ExpectConsistent(inc);
  }
}

TEST_F(IncrementalTest, AddRuleOnlyEvaluatesUnmatchedPairs) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  const size_t unmatched = ds_.candidates.size() - inc.matches().Count();
  Rng rng(3);
  auto stats = inc.AddRule(gen_->GenerateRule(rng));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rule_evaluations, unmatched);
}

TEST_F(IncrementalTest, RemoveRuleMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  while (inc.function().num_rules() > 0) {
    const RuleId rid = inc.function().rule(0).id();
    ASSERT_TRUE(inc.RemoveRule(rid).ok());
    ExpectConsistent(inc);
  }
  EXPECT_EQ(inc.matches().Count(), 0u);
}

TEST_F(IncrementalTest, RemoveMissingRuleIsNotFound) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  EXPECT_EQ(inc.RemoveRule(9999).status().code(), StatusCode::kNotFound);
}

TEST_F(IncrementalTest, AddPredicateTightensAndMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    const size_t pos = rng.Uniform(inc.function().num_rules());
    const RuleId rid = inc.function().rule(pos).id();
    const Rule extra = gen_->GenerateRule(rng);
    const size_t before = inc.matches().Count();
    ASSERT_TRUE(inc.AddPredicate(rid, extra.predicate(0)).ok());
    ExpectConsistent(inc);
    EXPECT_LE(inc.matches().Count(), before);  // tightening only shrinks
  }
}

TEST_F(IncrementalTest, RemovePredicateRelaxesAndMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const size_t pos = rng.Uniform(inc.function().num_rules());
    const Rule& rule = inc.function().rule(pos);
    if (rule.size() < 2) continue;  // keep rules non-empty here
    const PredicateId pid =
        rule.predicate(rng.Uniform(rule.size())).id;
    const size_t before = inc.matches().Count();
    ASSERT_TRUE(inc.RemovePredicate(rule.id(), pid).ok());
    ExpectConsistent(inc);
    EXPECT_GE(inc.matches().Count(), before);  // relaxing only grows
  }
}

TEST_F(IncrementalTest, RemoveLastPredicateMakesRuleFalse) {
  // A rule whose only predicate is removed becomes empty = false.
  MatchingFunction fn;
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kExactMatch, "category",
                             "category");
  Rule r;
  r.AddPredicate({f, CompareOp::kGe, 1.0});
  fn.AddRule(r);
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(fn);
  EXPECT_GT(inc.matches().Count(), 0u);
  const RuleId rid = inc.function().rule(0).id();
  const PredicateId pid = inc.function().rule(0).predicate(0).id;
  ASSERT_TRUE(inc.RemovePredicate(rid, pid).ok());
  EXPECT_EQ(inc.matches().Count(), 0u);
  ExpectConsistent(inc);
}

TEST_F(IncrementalTest, AddPredicateToEmptyRule) {
  MatchingFunction fn = gen_->Generate();
  const RuleId empty_id = fn.AddRule(Rule("empty"));
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(fn);
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kExactMatch, "category",
                             "category");
  ASSERT_TRUE(
      inc.AddPredicate(empty_id, {f, CompareOp::kGe, 1.0}).ok());
  ExpectConsistent(inc);
  // The rule now matches same-category pairs, so matches grew.
  EXPECT_GT(inc.matches().Count(), 0u);
}

TEST_F(IncrementalTest, TightenThresholdMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(6);
  for (int i = 0; i < 8; ++i) {
    const size_t pos = rng.Uniform(inc.function().num_rules());
    const Rule& rule = inc.function().rule(pos);
    const Predicate& p = rule.predicate(rng.Uniform(rule.size()));
    const double delta = 0.1 + 0.1 * rng.NextDouble();
    const double t = IsLowerBound(p.op) ? p.threshold + delta
                                        : p.threshold - delta;
    const size_t before = inc.matches().Count();
    ASSERT_TRUE(inc.SetThreshold(rule.id(), p.id, t).ok());
    ExpectConsistent(inc);
    EXPECT_LE(inc.matches().Count(), before);
  }
}

TEST_F(IncrementalTest, RelaxThresholdMatchesOracle) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    const size_t pos = rng.Uniform(inc.function().num_rules());
    const Rule& rule = inc.function().rule(pos);
    const Predicate& p = rule.predicate(rng.Uniform(rule.size()));
    const double delta = 0.1 + 0.1 * rng.NextDouble();
    const double t = IsLowerBound(p.op) ? p.threshold - delta
                                        : p.threshold + delta;
    const size_t before = inc.matches().Count();
    ASSERT_TRUE(inc.SetThreshold(rule.id(), p.id, t).ok());
    ExpectConsistent(inc);
    EXPECT_GE(inc.matches().Count(), before);
  }
}

TEST_F(IncrementalTest, EqualThresholdIsNoOp) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  const Rule& rule = inc.function().rule(0);
  const Predicate& p = rule.predicate(0);
  auto stats = inc.SetThreshold(rule.id(), p.id, p.threshold);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->predicate_evaluations, 0u);
  EXPECT_EQ(stats->rule_evaluations, 0u);
}

TEST_F(IncrementalTest, SetThresholdErrors) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  const RuleId rid = inc.function().rule(0).id();
  EXPECT_EQ(inc.SetThreshold(9999, 0, 0.5).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(inc.SetThreshold(rid, 99999, 0.5).status().code(),
            StatusCode::kNotFound);
}

// The central property test, on the serial engine.
TEST_F(IncrementalTest, RandomEditSequenceStaysConsistent) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  RandomEditSequence(inc);
}

// Same property with the full run's blocks and each edit's missing feature
// lanes spread over a work-stealing pool. Every edit's result must be
// identical to the serial oracle regardless of scheduling.
TEST_F(IncrementalTest, RandomEditsConsistentWithWorkerPool) {
  ThreadPool pool(4);
  IncrementalMatcher inc(*ctx_, ds_.candidates,
                         IncrementalMatcher::Options{.pool = &pool});
  RandomEditSequence(inc);
}

// Parallel and serial incremental engines must report identical work
// counters for the same edit (no lost or duplicated MatchStats).
TEST_F(IncrementalTest, PoolPreservesEditStats) {
  ThreadPool pool(4);
  IncrementalMatcher serial(*ctx_, ds_.candidates);
  IncrementalMatcher parallel(*ctx_, ds_.candidates,
                              IncrementalMatcher::Options{.pool = &pool});
  const MatchingFunction fn = gen_->Generate();
  serial.FullRun(fn);
  parallel.FullRun(fn);

  Rng rng(17);
  const Rule extra = gen_->GenerateRule(rng);
  const auto s = serial.AddRule(extra);
  const auto p = parallel.AddRule(extra);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s->rule_evaluations, p->rule_evaluations);
  EXPECT_EQ(s->predicate_evaluations, p->predicate_evaluations);
  EXPECT_EQ(s->feature_computations, p->feature_computations);
  EXPECT_EQ(s->memo_hits, p->memo_hits);
  EXPECT_EQ(serial.matches(), parallel.matches());

  const RuleId rid = serial.last_added_rule_id();
  const auto s2 = serial.RemoveRule(rid);
  const auto p2 = parallel.RemoveRule(parallel.last_added_rule_id());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(s2->rule_evaluations, p2->rule_evaluations);
  EXPECT_EQ(s2->predicate_evaluations, p2->predicate_evaluations);
  EXPECT_EQ(serial.matches(), parallel.matches());
}

// A second random sequence, weighted toward added rules and thresholds.
TEST_F(IncrementalTest, RandomEditsConsistentWithoutCheckCacheFirst) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  inc.FullRun(gen_->Generate());
  Rng rng(9);
  for (int step = 0; step < 30; ++step) {
    const size_t num_rules = inc.function().num_rules();
    if (rng.Bernoulli(0.5) || num_rules == 0) {
      ASSERT_TRUE(inc.AddRule(gen_->GenerateRule(rng)).ok());
    } else {
      const Rule& rule = inc.function().rule(rng.Uniform(num_rules));
      if (rule.empty()) continue;
      const Predicate& p = rule.predicate(rng.Uniform(rule.size()));
      ASSERT_TRUE(
          inc.SetThreshold(rule.id(), p.id, rng.NextDouble()).ok());
    }
    ASSERT_EQ(inc.matches(), OracleMatches(inc.function())) << step;
  }
}

TEST_F(IncrementalTest, IncrementalIsCheaperThanRerun) {
  IncrementalMatcher inc(*ctx_, ds_.candidates);
  const MatchStats full = inc.FullRun(gen_->Generate());
  Rng rng(10);
  // Tightening one predicate must do far less work than the full run.
  const Rule& rule = inc.function().rule(0);
  const Predicate& p = rule.predicate(0);
  const double t =
      IsLowerBound(p.op) ? p.threshold + 0.05 : p.threshold - 0.05;
  auto stats = inc.SetThreshold(rule.id(), p.id, t);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->predicate_evaluations,
            full.predicate_evaluations / 5 + 10);
}

}  // namespace
}  // namespace emdbg
