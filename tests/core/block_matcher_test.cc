/// Randomized differential suite for the columnar block engine: for every
/// rule-set shape, block size, context rung (id columns, or the string
/// kernels re-tokenizing per call) and pool (none, or 4 workers),
/// BlockMatcher must be
/// *bit-identical* to the serial MemoMatcher — same match bitmap, same
/// per-rule/per-predicate decision bitmaps, same MatchStats counters, same
/// memo contents — because it performs the same set of evaluations, merely
/// reordered across the pairs of one block.

#include <cmath>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "src/core/block_matcher.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/util/memory_budget.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

void ExpectSameCounters(const MatchStats& block, const MatchStats& serial) {
  EXPECT_EQ(block.feature_computations, serial.feature_computations);
  EXPECT_EQ(block.memo_hits, serial.memo_hits);
  EXPECT_EQ(block.predicate_evaluations, serial.predicate_evaluations);
  EXPECT_EQ(block.rule_evaluations, serial.rule_evaluations);
}

void ExpectSameMemo(const DenseMemo& block, const DenseMemo& serial) {
  ASSERT_EQ(block.num_pairs(), serial.num_pairs());
  ASSERT_EQ(block.num_features(), serial.num_features());
  EXPECT_EQ(block.FilledCount(), serial.FilledCount());
  for (size_t i = 0; i < serial.num_pairs(); ++i) {
    for (FeatureId f = 0; f < serial.num_features(); ++f) {
      double bv = 0.0, sv = 0.0;
      const bool bp = block.Lookup(i, f, &bv);
      const bool sp = serial.Lookup(i, f, &sv);
      ASSERT_EQ(bp, sp) << "presence differs at pair " << i << " feature "
                        << f;
      if (sp) {
        ASSERT_EQ(bv, sv) << "value differs at pair " << i << " feature "
                          << f;
      }
    }
  }
}

void ExpectSameState(const MatchingFunction& fn, const MatchState& block,
                     const MatchState& serial) {
  for (const Rule& r : fn.rules()) {
    const Bitmap* bt = block.FindRuleTrue(r.id());
    const Bitmap* st = serial.FindRuleTrue(r.id());
    ASSERT_EQ(bt != nullptr, st != nullptr);
    if (st != nullptr) {
      EXPECT_EQ(*bt, *st) << "RuleTrue " << r.id();
    }
    for (const Predicate& p : r.predicates()) {
      const Bitmap* bf = block.FindPredFalse(p.id);
      const Bitmap* sf = serial.FindPredFalse(p.id);
      ASSERT_EQ(bf != nullptr, sf != nullptr);
      if (sf != nullptr) {
        EXPECT_EQ(*bf, *sf) << "PredFalse " << p.id;
      }
    }
  }
}

// (id columns, or a context whose budget refuses them; rule count,
// generator seed, block size; 0 = auto)
using ParamType = std::tuple<bool, int, int, size_t>;

class BlockDifferentialTest : public ::testing::TestWithParam<ParamType> {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<GeneratedDataset>(testing::SmallProducts(4242));
    catalog_ =
        std::make_unique<FeatureCatalog>(ds_->a.schema(), ds_->b.schema());
    catalog_->InternAllSameAttribute();
    // The "strings" rung: a 1-byte budget refuses every id column, so
    // each feature re-tokenizes per call through the string kernels.
    PairContext::Options opts;
    if (!std::get<0>(GetParam())) opts.budget = &refusing_;
    ctx_ = std::make_unique<PairContext>(ds_->a, ds_->b, *catalog_, opts);
    Rng rng(7);
    sample_ = std::make_unique<CandidateSet>(
        SamplePairs(ds_->candidates, 0.25, rng));
  }

  MatchingFunction MakeFunction() {
    RuleGeneratorConfig config;
    config.num_rules = std::get<1>(GetParam());
    config.min_predicates = 1;
    config.max_predicates = 5;
    config.seed = static_cast<uint64_t>(std::get<2>(GetParam()));
    RuleGenerator gen(*ctx_, *sample_, config);
    return gen.Generate();
  }

  BlockMatcher MakeBlock() {
    BlockMatcher::Options opts;
    opts.block_size = std::get<3>(GetParam());
    opts.pool = pool_.get();
    return BlockMatcher(opts);
  }

  void CheckRunWithState() {
    const MatchingFunction fn = MakeFunction();
    MemoMatcher serial;  // defaults: ccf off — the block-mode semantics
    BlockMatcher block = MakeBlock();

    MatchState serial_state;
    const MatchResult sr =
        serial.RunWithState(fn, ds_->candidates, *ctx_, serial_state);
    MatchState block_state;
    const MatchResult br =
        block.RunWithState(fn, ds_->candidates, *ctx_, block_state);

    EXPECT_EQ(br.matches, sr.matches);
    EXPECT_FALSE(br.partial);
    EXPECT_EQ(br.pairs_completed, sr.pairs_completed);
    ExpectSameCounters(br.stats, sr.stats);
    ExpectSameState(fn, block_state, serial_state);
    ExpectSameMemo(block_state.memo(), serial_state.memo());
    EXPECT_EQ(block_state.matches(), serial_state.matches());
    EXPECT_EQ(ctx_->id_path_degraded(), !std::get<0>(GetParam()));
  }

  void CheckMemoLessRun() {
    const MatchingFunction fn = MakeFunction();
    MemoMatcher serial;
    BlockMatcher block = MakeBlock();

    const MatchResult sr = serial.Run(fn, ds_->candidates, *ctx_);
    const MatchResult br = block.Run(fn, ds_->candidates, *ctx_);

    EXPECT_EQ(br.matches, sr.matches);
    ExpectSameCounters(br.stats, sr.stats);
  }

  void CheckWarmMemoReuse() {
    const MatchingFunction fn = MakeFunction();
    MemoMatcher serial;
    BlockMatcher block = MakeBlock();

    // Warm both memos with a first run, then re-run: the second pass must
    // be all hits, and still agree.
    DenseMemo serial_memo(ds_->candidates.size(), catalog_->size());
    DenseMemo block_memo(ds_->candidates.size(), catalog_->size());
    (void)serial.RunWithMemo(fn, ds_->candidates, *ctx_, serial_memo);
    (void)block.RunWithMemo(fn, ds_->candidates, *ctx_, block_memo);
    ExpectSameMemo(block_memo, serial_memo);

    const MatchResult sr =
        serial.RunWithMemo(fn, ds_->candidates, *ctx_, serial_memo);
    const MatchResult br =
        block.RunWithMemo(fn, ds_->candidates, *ctx_, block_memo);
    EXPECT_EQ(br.matches, sr.matches);
    ExpectSameCounters(br.stats, sr.stats);
    EXPECT_EQ(br.stats.feature_computations, 0u);
  }

  MemoryBudget refusing_{1, "refusing"};
  std::unique_ptr<GeneratedDataset> ds_;
  std::unique_ptr<FeatureCatalog> catalog_;
  std::unique_ptr<PairContext> ctx_;
  std::unique_ptr<CandidateSet> sample_;
  /// Null: blocks run in the test's thread.
  std::unique_ptr<ThreadPool> pool_;
};

/// The same sweep with the blocks spread over a 4-worker pool.
class ParallelBlockDifferentialTest : public BlockDifferentialTest {
 protected:
  void SetUp() override {
    BlockDifferentialTest::SetUp();
    pool_ = std::make_unique<ThreadPool>(4);
  }
};

TEST_P(BlockDifferentialTest, RunWithStateBitIdentical) {
  CheckRunWithState();
}

TEST_P(BlockDifferentialTest, MemoLessRunMatchesSerial) {
  CheckMemoLessRun();
}

TEST_P(BlockDifferentialTest, WarmMemoReusedIdentically) {
  CheckWarmMemoReuse();
}

TEST_P(ParallelBlockDifferentialTest, RunWithStateBitIdentical) {
  CheckRunWithState();
}

TEST_P(ParallelBlockDifferentialTest, MemoLessRunMatchesSerial) {
  CheckMemoLessRun();
}

TEST_P(ParallelBlockDifferentialTest, WarmMemoReusedIdentically) {
  CheckWarmMemoReuse();
}

/// Test names: id columns or strings, rule count, seed, block size.
std::string SweepName(const ::testing::TestParamInfo<ParamType>& info) {
  const bool ids = std::get<0>(info.param);
  const int rules = std::get<1>(info.param);
  const int seed = std::get<2>(info.param);
  const size_t block = std::get<3>(info.param);
  return std::string(ids ? "ids" : "strings") + "_r" +
         std::to_string(rules) + "_s" + std::to_string(seed) +
         (block == 0 ? std::string("_auto") : "_b" + std::to_string(block));
}

const auto kSweep =
    ::testing::Combine(::testing::Bool(),            // id columns
                       ::testing::Values(1, 3, 8),   // rules (CNF 1..5 each)
                       ::testing::Values(1, 2, 3),   // generator seed
                       ::testing::Values(size_t{64}, size_t{192},
                                         size_t{1024}, size_t{0}));

INSTANTIATE_TEST_SUITE_P(Sweep, BlockDifferentialTest, kSweep, SweepName);
INSTANTIATE_TEST_SUITE_P(Sweep, ParallelBlockDifferentialTest, kSweep,
                         SweepName);

class BlockMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<GeneratedDataset>(testing::SmallProducts(31337));
    catalog_ =
        std::make_unique<FeatureCatalog>(ds_->a.schema(), ds_->b.schema());
    catalog_->InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_->a, ds_->b, *catalog_);
    Rng rng(7);
    sample_ = std::make_unique<CandidateSet>(
        SamplePairs(ds_->candidates, 0.25, rng));
    RuleGeneratorConfig config;
    config.num_rules = 4;
    config.min_predicates = 2;
    config.max_predicates = 4;
    config.seed = 17;
    RuleGenerator gen(*ctx_, *sample_, config);
    fn_ = std::make_unique<MatchingFunction>(gen.Generate());
  }

  /// The bytes a run of fn_ in 64-pair blocks reserves for `workers`:
  /// each worker's scratch and the per-worker state beside it.
  size_t ScratchReservation(size_t workers) const {
    struct alignas(64) WorkerState {
      MatchStats stats;
      BlockEvaluator::Scratch scratch;
    };
    const BlockEvaluator eval(*fn_, ds_->candidates, *ctx_, nullptr, nullptr,
                              64);
    return workers * (eval.ScratchBytes() + sizeof(WorkerState));
  }

  std::unique_ptr<GeneratedDataset> ds_;
  std::unique_ptr<FeatureCatalog> catalog_;
  std::unique_ptr<PairContext> ctx_;
  std::unique_ptr<CandidateSet> sample_;
  std::unique_ptr<MatchingFunction> fn_;
};

TEST_F(BlockMatcherTest, PreCancelledRunEvaluatesNothing) {
  CancellationToken token;
  token.RequestCancel();
  BlockMatcher block(BlockMatcher::Options{.block_size = 64});
  const MatchResult r =
      block.Run(*fn_, ds_->candidates, *ctx_, RunControl(token));
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.MatchCount(), 0u);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.stats.feature_computations, 0u);
}

TEST_F(BlockMatcherTest, ExpiredDeadlineStopsOnBlockBoundary) {
  BlockMatcher block(BlockMatcher::Options{.block_size = 64});
  const MatchResult r = block.Run(*fn_, ds_->candidates, *ctx_,
                                  RunControl(Deadline::AfterMillis(-1)));
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.pairs_completed % 64, 0u);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);

  // Every evaluated pair carries the serial matcher's bit.
  MemoMatcher serial;
  const Bitmap expected = serial.Run(*fn_, ds_->candidates, *ctx_).matches;
  for (size_t i = 0; i < r.pairs_completed; ++i) {
    EXPECT_EQ(r.matches.Get(i), expected.Get(i)) << "pair " << i;
  }
}

TEST_F(BlockMatcherTest, ScratchBudgetDenialFailsCleanly) {
  MemoryBudget budget(1024, "tiny");  // far below any block scratch
  BlockMatcher block(
      BlockMatcher::Options{.block_size = 1024, .budget = &budget});
  const MatchResult r = block.Run(*fn_, ds_->candidates, *ctx_);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u) << "denied run must release everything";
}

TEST_F(BlockMatcherTest, MemoLessRunUnderABudgetBelowTheMemo) {
  // The bounded-memory full run: a budget of a twelfth of the pairs ×
  // features memo holds every worker's block scratch, and nothing else
  // is reserved. 64-pair blocks keep four workers' scratch inside it.
  const size_t memo_bytes =
      ds_->candidates.size() * catalog_->size() * sizeof(float);
  MemoMatcher cold;
  const MatchResult want = cold.Run(*fn_, ds_->candidates, *ctx_);
  ASSERT_FALSE(want.partial);

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const size_t workers = p != nullptr ? p->num_workers() : 1;
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    MemoryBudget budget(memo_bytes / 12, "below-the-memo");
    BlockMatcher block(BlockMatcher::Options{
        .block_size = 64, .budget = &budget, .pool = p});
    const MatchResult got = block.Run(*fn_, ds_->candidates, *ctx_);
    ASSERT_FALSE(got.partial) << got.status.ToString();
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.stats.feature_computations,
              want.stats.feature_computations);
    EXPECT_EQ(got.stats.predicate_evaluations,
              want.stats.predicate_evaluations);
    EXPECT_GT(budget.peak(), 0u);
    EXPECT_LE(budget.peak(), ScratchReservation(workers));
    EXPECT_EQ(budget.used(), 0u);
  }
}

TEST_F(BlockMatcherTest, ScratchOutranksTheContextsCachesInOneBudget) {
  // The context's id caches fill the run's own budget, leaving no room
  // for the block scratch: the run drops the caches to fit its scratch
  // instead of refusing, and the features whose columns no longer fit
  // re-tokenize per call.
  MemoMatcher cold;
  const MatchResult want = cold.Run(*fn_, ds_->candidates, *ctx_);
  size_t cached = 0;
  {
    MemoryBudget probe(0, "probe");
    PairContext measured(ds_->a, ds_->b, *catalog_,
                         PairContext::Options{.budget = &probe});
    measured.Prewarm(fn_->UsedFeatures());
    cached = probe.used();
  }
  ASSERT_GT(cached, 0u);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const size_t workers = p != nullptr ? p->num_workers() : 1;
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    // One byte short of the caches and the scratch together.
    MemoryBudget budget(cached + ScratchReservation(workers) - 1, "shared");
    PairContext warm(ds_->a, ds_->b, *catalog_,
                     PairContext::Options{.budget = &budget});
    warm.Prewarm(fn_->UsedFeatures());
    ASSERT_EQ(budget.used(), cached);

    BlockMatcher block(BlockMatcher::Options{
        .block_size = 64, .budget = &budget, .pool = p});
    const MatchResult got = block.Run(*fn_, ds_->candidates, warm);
    ASSERT_FALSE(got.partial) << got.status.ToString();
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.stats.feature_computations,
              want.stats.feature_computations);
    EXPECT_EQ(got.stats.predicate_evaluations,
              want.stats.predicate_evaluations);
    EXPECT_TRUE(warm.id_path_degraded());
  }
}

TEST_F(BlockMatcherTest, AutoBlockSizeIsAlignedAndClamped) {
  const size_t b = BlockMatcher::AutoBlockSize(*fn_, nullptr);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, size_t{256});
  EXPECT_LE(b, size_t{4096});

  // Explicit sizes round up to the bitmap-word alignment.
  EXPECT_EQ(BlockMatcher::ResolveBlockSize(
                BlockMatcher::Options{.block_size = 1}, *fn_),
            64u);
  EXPECT_EQ(BlockMatcher::ResolveBlockSize(
                BlockMatcher::Options{.block_size = 65}, *fn_),
            128u);
  EXPECT_EQ(BlockMatcher::ResolveBlockSize(
                BlockMatcher::Options{.block_size = 512}, *fn_),
            512u);
}

TEST_F(BlockMatcherTest, EmptyFunctionAndEmptyPairsAreHandled) {
  MatchingFunction empty_fn;
  BlockMatcher block;
  const MatchResult r1 = block.Run(empty_fn, ds_->candidates, *ctx_);
  EXPECT_FALSE(r1.partial);
  EXPECT_EQ(r1.MatchCount(), 0u);
  EXPECT_EQ(r1.stats.rule_evaluations, 0u);

  CandidateSet none;
  const MatchResult r2 = block.Run(*fn_, none, *ctx_);
  EXPECT_FALSE(r2.partial);
  EXPECT_EQ(r2.pairs_completed, 0u);
}

TEST_F(BlockMatcherTest, DegradedContextStaysBitIdentical) {
  // A context whose id caches are denied by a tiny budget must still
  // produce the serial matcher's exact result (the degradation ladder is
  // value-preserving; the engine only changes *when* lanes are computed).
  MemoryBudget tiny(16 * 1024, "ctx");
  PairContext::Options opts;
  opts.budget = &tiny;
  PairContext degraded(ds_->a, ds_->b, *catalog_, opts);

  MemoMatcher serial;
  const Bitmap expected =
      serial.Run(*fn_, ds_->candidates, degraded).matches;
  BlockMatcher block(BlockMatcher::Options{.block_size = 256});
  const MatchResult r = block.Run(*fn_, ds_->candidates, degraded);
  EXPECT_EQ(r.matches, expected);
}

}  // namespace
}  // namespace emdbg
