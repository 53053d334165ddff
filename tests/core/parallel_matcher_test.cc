/// BlockMatcher over a work-stealing pool: every worker count and schedule
/// must give MemoMatcher's result (check-cache-first off, the block
/// engine's contract) — matches, decision bitmaps and MatchStats.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/block_matcher.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/data/datasets.h"
#include "src/util/bitmap.h"
#include "src/util/cancellation.h"
#include "src/util/memory_budget.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class ParallelMatcherTest : public ::testing::Test {
 protected:
  ParallelMatcherTest() : ds_(testing::SmallProducts()) {
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

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
};

TEST_F(ParallelMatcherTest, AgreesWithSerialAcrossThreadCounts) {
  const MatchingFunction fn = Rules(10, 7);
  MemoMatcher serial;
  const Bitmap expected = serial.Run(fn, ds_.candidates, *ctx_).matches;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
    EXPECT_EQ(parallel.Run(fn, ds_.candidates, *ctx_).matches, expected)
        << threads << " threads";
  }
}

TEST_F(ParallelMatcherTest, InterningBitIdenticalSerialAndParallel) {
  // Same matching function evaluated four ways: serial and 4-thread
  // parallel, each on the interned-id columns and on the re-tokenizing
  // string kernels (a context whose budget refuses the cache) — all four
  // match bitmaps must be equal.
  const MatchingFunction fn = Rules(10, 19);
  MemoryBudget refusing(1, "refusing");
  PairContext fallback(ds_.a, ds_.b, catalog_,
                       PairContext::Options{.budget = &refusing});
  MemoMatcher serial;
  const Bitmap strings = serial.Run(fn, ds_.candidates, fallback).matches;
  EXPECT_TRUE(fallback.id_path_degraded());
  const Bitmap ids = serial.Run(fn, ds_.candidates, *ctx_).matches;
  EXPECT_EQ(ids, strings);
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  PairContext ctx_fresh(ds_.a, ds_.b, catalog_);
  EXPECT_EQ(parallel.Run(fn, ds_.candidates, ctx_fresh).matches, strings);
  PairContext fallback_fresh(ds_.a, ds_.b, catalog_,
                             PairContext::Options{.budget = &refusing});
  EXPECT_EQ(parallel.Run(fn, ds_.candidates, fallback_fresh).matches,
            strings);
  EXPECT_TRUE(fallback_fresh.id_path_degraded());
}

TEST_F(ParallelMatcherTest, StatsAggregateAcrossThreads) {
  const MatchingFunction fn = Rules(6, 11);
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  const MatchResult result = parallel.Run(fn, ds_.candidates, *ctx_);
  // Same per-pair work as serial DM+EE: each pair evaluates every rule
  // until one fires, so rule_evaluations is bounded by pairs * rules and
  // at least pairs (non-empty rule set, unmatched pairs check all).
  EXPECT_GE(result.stats.rule_evaluations, ds_.candidates.size());
  EXPECT_LE(result.stats.rule_evaluations,
            ds_.candidates.size() * fn.num_rules());
  EXPECT_GT(result.stats.feature_computations, 0u);
}

TEST_F(ParallelMatcherTest, DeterministicMatchesAcrossRuns) {
  const MatchingFunction fn = Rules(8, 13);
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  const Bitmap first = parallel.Run(fn, ds_.candidates, *ctx_).matches;
  const Bitmap second = parallel.Run(fn, ds_.candidates, *ctx_).matches;
  EXPECT_EQ(first, second);
}

TEST_F(ParallelMatcherTest, EmptyFunctionAndEmptyPairs) {
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  EXPECT_EQ(
      parallel.Run(MatchingFunction(), ds_.candidates, *ctx_).MatchCount(),
      0u);
  const CandidateSet empty;
  const MatchingFunction fn = Rules(3, 15);
  EXPECT_EQ(parallel.Run(fn, empty, *ctx_).matches.size(), 0u);
}

TEST_F(ParallelMatcherTest, RunWithStateBitIdenticalToSerial) {
  // The engine's core guarantee: for every seed and thread count, the
  // pooled matcher's matches, work counters, and decision bitmaps are
  // bit-identical to the serial MemoMatcher's (check-cache-first off).
  for (const uint64_t seed : {5u, 23u, 41u}) {
    const MatchingFunction fn = Rules(8, seed);
    MemoMatcher serial;
    MatchState want_state;
    const MatchResult want =
        serial.RunWithState(fn, ds_.candidates, *ctx_, want_state);
    const size_t n = ds_.candidates.size();
    const auto rule_true = [&](const MatchState& s, RuleId rid) {
      const Bitmap* bm = s.FindRuleTrue(rid);
      return bm != nullptr ? *bm : Bitmap(n);
    };
    const auto pred_false = [&](const MatchState& s, PredicateId pid) {
      const Bitmap* bm = s.FindPredFalse(pid);
      return bm != nullptr ? *bm : Bitmap(n);
    };
    for (const size_t threads : {2u, 3u, 8u}) {
      ThreadPool pool(threads);
      // 64-pair blocks: 15 blocks over the 900 pairs, so every worker
      // evaluates some.
      BlockMatcher parallel(
          BlockMatcher::Options{.block_size = 64, .pool = &pool});
      MatchState got_state;
      const MatchResult got =
          parallel.RunWithState(fn, ds_.candidates, *ctx_, got_state);
      ASSERT_EQ(got.matches, want.matches) << "seed " << seed << " threads "
                                           << threads;
      EXPECT_EQ(got_state.matches(), want_state.matches());
      EXPECT_EQ(got.stats.rule_evaluations, want.stats.rule_evaluations);
      EXPECT_EQ(got.stats.predicate_evaluations,
                want.stats.predicate_evaluations);
      EXPECT_EQ(got.stats.feature_computations,
                want.stats.feature_computations);
      EXPECT_EQ(got.stats.memo_hits, want.stats.memo_hits);
      EXPECT_EQ(got_state.memo().FilledCount(),
                want_state.memo().FilledCount());
      for (const Rule& r : fn.rules()) {
        EXPECT_EQ(rule_true(got_state, r.id()), rule_true(want_state, r.id()))
            << "rule " << r.id();
        for (const Predicate& p : r.predicates()) {
          EXPECT_EQ(pred_false(got_state, p.id), pred_false(want_state, p.id))
              << "predicate " << p.id;
        }
      }
    }
  }
}

TEST_F(ParallelMatcherTest, StaticScheduleAgreesWithDynamic) {
  const MatchingFunction fn = Rules(8, 29);
  ThreadPool pool(4);
  BlockMatcher dynamic(
      BlockMatcher::Options{.block_size = 64, .pool = &pool});
  BlockMatcher static_sched(BlockMatcher::Options{
      .block_size = 64, .pool = &pool, .dynamic_schedule = false});
  EXPECT_EQ(dynamic.Run(fn, ds_.candidates, *ctx_).matches,
            static_sched.Run(fn, ds_.candidates, *ctx_).matches);
}

TEST_F(ParallelMatcherTest, RejectsHashMemoWhenMultithreaded) {
  const MatchingFunction fn = Rules(4, 31);
  HashMemo memo;
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  const MatchResult r = parallel.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.evaluated.Count(), 0u);
  EXPECT_EQ(memo.FilledCount(), 0u);

  // The same memo is fine on a one-worker pool (no concurrent Store).
  ThreadPool one_worker(1);
  BlockMatcher one(BlockMatcher::Options{.pool = &one_worker});
  const MatchResult ok = one.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  EXPECT_FALSE(ok.partial);
  MemoMatcher serial;
  EXPECT_EQ(ok.matches, serial.Run(fn, ds_.candidates, *ctx_).matches);
}

TEST_F(ParallelMatcherTest, ShardedMemoAgreesWithSerialAndReusesValues) {
  const MatchingFunction fn = Rules(8, 37);
  MemoMatcher serial;
  const Bitmap expected = serial.Run(fn, ds_.candidates, *ctx_).matches;

  ShardedMemo memo;
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  const MatchResult first =
      parallel.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  ASSERT_FALSE(first.partial) << first.status.ToString();
  EXPECT_EQ(first.matches, expected);
  EXPECT_GT(memo.FilledCount(), 0u);

  // Second run over the warm sharded memo: every needed value is already
  // stored, so no feature is recomputed and the matches are unchanged.
  const MatchResult second =
      parallel.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  EXPECT_EQ(second.matches, expected);
  EXPECT_EQ(second.stats.feature_computations, 0u);
  EXPECT_GT(second.stats.memo_hits, 0u);
}

TEST_F(ParallelMatcherTest, CancelledRunReportsExactEvaluatedBitmap) {
  // Mid-run cancellation under dynamic block claiming: the partial
  // result's `evaluated` bitmap must name exactly the pairs of the blocks
  // whose evaluation completed (a union of claimed blocks, not a prefix),
  // and every evaluated pair's match bit must agree with an uncancelled
  // run.
  const MatchingFunction fn = Rules(10, 43);
  ThreadPool pool(4);
  constexpr size_t kBlock = 64;
  BlockMatcher parallel(
      BlockMatcher::Options{.block_size = kBlock, .pool = &pool});
  const Bitmap expected = parallel.Run(fn, ds_.candidates, *ctx_).matches;

  // Race a canceller thread against the run a few times; whenever the
  // stop lands mid-run, the exactness contract must hold. (The
  // deterministic chunk-level exactness proof is in thread_pool_test;
  // this exercises the matcher-level translation to `evaluated`.)
  const size_t n = ds_.candidates.size();
  for (int attempt = 0; attempt < 8; ++attempt) {
    CancellationToken token;
    std::thread canceller([&] { token.RequestCancel(); });
    const MatchResult r =
        parallel.Run(fn, ds_.candidates, *ctx_, RunControl(token));
    canceller.join();
    if (!r.partial) continue;  // the run won the race; contract vacuous
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.evaluated.Count(), r.pairs_completed);
    EXPECT_LT(r.pairs_completed, n);
    for (size_t i = 0; i < n; ++i) {
      // Blocks complete whole: a block's pairs are all evaluated or none.
      const size_t first = i / kBlock * kBlock;
      EXPECT_EQ(r.evaluated.Get(i), r.evaluated.Get(first)) << "pair " << i;
      if (r.evaluated.Get(i)) {
        EXPECT_EQ(r.matches.Get(i), expected.Get(i)) << "pair " << i;
      } else {
        // Never-written bits stay unset — callers must not read them.
        EXPECT_FALSE(r.matches.Get(i)) << "pair " << i;
      }
    }
  }
  // Pre-cancelled runs always stop with nothing evaluated.
  CancellationToken pre;
  pre.RequestCancel();
  const MatchResult r =
      parallel.Run(fn, ds_.candidates, *ctx_, RunControl(pre));
  ASSERT_TRUE(r.partial);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.evaluated.Count(), 0u);
}

TEST_F(ParallelMatcherTest, PrewarmMakesContextReadOnly) {
  // After Prewarm, parallel feature computation must not grow the id
  // caches (every column the features read is built).
  const MatchingFunction fn = Rules(10, 17);
  ctx_->Prewarm(fn.UsedFeatures());
  const size_t bytes_before = ctx_->IdCacheBytes();
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  parallel.Run(fn, ds_.candidates, *ctx_);
  EXPECT_EQ(ctx_->IdCacheBytes(), bytes_before);
}

TEST(ParallelBudgetSqueezeTest, RefusedBuildsAreNeverRetriedPerPair) {
  // products at scale 0.05: title's word column and its tf vectors land in
  // different 256 KB billing chunks, so some budgets admit the column and
  // refuse the tf vectors (or the TF-IDF weights built on them). Once a
  // build is refused, the context must not retry it on every pair — on
  // worker threads that was a data race — so at every budget a block pass
  // adds a bounded number of denials, and a 4-thread run agrees with an
  // unbudgeted serial one.
  const GeneratedDataset ds = GenerateDataset(
      ScaleProfile(PaperDatasetProfile(DatasetId::kProducts), 0.05));
  FeatureCatalog catalog(ds.a.schema(), ds.b.schema());
  const Result<MatchingFunction> fn = ParseMatchingFunction(
      "r1: cosine(title, title) >= 0.6\n"
      "r2: tf_idf(title, title) >= 0.6\n"
      "r3: soft_tf_idf(title, title) >= 0.8\n"
      "r4: jaccard(brand, brand) >= 0.9",
      catalog);
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  const std::vector<FeatureId> features = fn->UsedFeatures();
  constexpr size_t kPairs = 2048;
  ASSERT_GE(ds.candidates.size(), kPairs);
  const std::vector<PairId> subset(ds.candidates.pairs().begin(),
                                   ds.candidates.pairs().begin() + kPairs);
  const CandidateSet pairs(subset);

  PairContext unbudgeted(ds.a, ds.b, catalog);
  const Bitmap want = MemoMatcher().Run(*fn, pairs, unbudgeted).matches;
  unbudgeted.Prewarm(features);
  const size_t total = unbudgeted.IdCacheBytes() +
                       unbudgeted.interner().ArenaBytes() +
                       unbudgeted.interner().DictionaryBytes();

  const std::vector<uint64_t> mask(bitspan::Words(kPairs), ~uint64_t{0});
  std::vector<float> out(kPairs);
  ThreadPool pool(4);
  BlockMatcher parallel(BlockMatcher::Options{.pool = &pool});
  constexpr size_t kSteps = 24;
  for (size_t step = 0; step <= kSteps; ++step) {
    const size_t limit = std::max<size_t>(1, total * step / kSteps);
    MemoryBudget budget(limit, "squeeze");
    PairContext ctx(ds.a, ds.b, catalog,
                    PairContext::Options{.budget = &budget});
    for (const FeatureId f : features) {
      ctx.ComputeFeatureBlock(f, subset.data(), kPairs, mask.data(),
                              out.data());
    }
    EXPECT_LE(ctx.budget_denials(), features.size())
        << "budget " << limit << " of " << total;

    MemoryBudget fresh_budget(limit, "squeeze");
    PairContext fresh(ds.a, ds.b, catalog,
                      PairContext::Options{.budget = &fresh_budget});
    EXPECT_EQ(parallel.Run(*fn, pairs, fresh).matches, want)
        << "budget " << limit << " of " << total;
    EXPECT_LE(fresh.budget_denials(), features.size())
        << "budget " << limit << " of " << total;
  }
}

}  // namespace
}  // namespace emdbg
