/// Differential suite for the out-of-core sharded driver: a sharded run —
/// any shard size, spilling or not, serial or pooled — must be
/// *bit-identical* to one monolithic serial MemoMatcher run over the same
/// pairs: same match bitmap, same per-rule/per-predicate decision bitmaps
/// (shard slices vs global ranges), same memo values, same MatchStats
/// counters. Plus the robustness matrix: mid-run cancellation, injected
/// budget denials at every reservation site, and injected spill-IO
/// failures must yield clean partial results whose evaluated bits are
/// still exact — never silently wrong matches.

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/block/external_sort.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/shard_driver.h"
#include "src/util/fault_injection.h"
#include "src/util/memory_budget.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

void ExpectSameCounters(const MatchStats& sharded, const MatchStats& serial) {
  EXPECT_EQ(sharded.feature_computations, serial.feature_computations);
  EXPECT_EQ(sharded.memo_hits, serial.memo_hits);
  EXPECT_EQ(sharded.predicate_evaluations, serial.predicate_evaluations);
  EXPECT_EQ(sharded.rule_evaluations, serial.rule_evaluations);
}

/// Compares one shard's decision bitmap against the [begin, end) range of
/// the serial full-length bitmap. A missing shard bitmap is fine iff the
/// serial range is all zero (the shard never touched that rule/pred).
void ExpectSliceEqual(const Bitmap* shard_bits, const Bitmap* serial_bits,
                      size_t begin, size_t end, const std::string& what) {
  if (serial_bits == nullptr) {
    if (shard_bits != nullptr) {
      EXPECT_EQ(shard_bits->Count(), 0u) << what;
    }
    return;
  }
  for (size_t i = begin; i < end; ++i) {
    const bool expected = serial_bits->Get(i);
    const bool got = shard_bits != nullptr && shard_bits->Get(i - begin);
    ASSERT_EQ(got, expected) << what << " differs at global pair " << i;
  }
}

class ShardDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjection::DisarmAll();
    ds_ = std::make_unique<GeneratedDataset>(testing::SmallProducts(4242));
    catalog_ =
        std::make_unique<FeatureCatalog>(ds_->a.schema(), ds_->b.schema());
    catalog_->InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_->a, ds_->b, *catalog_);
    // The driver's merge math assumes a sorted, deduped pair sequence
    // (true of every blocker's output).
    pairs_ = ds_->candidates;
    pairs_.SortAndDedup();
    // One spill directory per test, so tests run as parallel processes
    // never overwrite each other's shard-N.state files.
    spill_dir_ =
        ::testing::TempDir() + "/emdbg_shard_driver_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(spill_dir_);
    std::filesystem::create_directories(spill_dir_);
  }

  void TearDown() override {
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(spill_dir_);
  }

  MatchingFunction MakeFunction(uint64_t seed = 3, int num_rules = 4) {
    RuleGeneratorConfig config;
    config.num_rules = num_rules;
    config.min_predicates = 1;
    config.max_predicates = 4;
    config.seed = seed;
    RuleGenerator gen(*ctx_, pairs_, config);
    return gen.Generate();
  }

  /// Fresh serial baseline over the same pairs with its own context (so
  /// memo warm-up in one run never leaks into the other).
  MatchResult SerialBaseline(const MatchingFunction& fn,
                             MatchState* state_out) {
    PairContext fresh(ds_->a, ds_->b, *catalog_);
    MemoMatcher serial;  // defaults: ccf off — the block-mode semantics
    return serial.RunWithState(fn, pairs_, fresh, *state_out);
  }

  std::string SpillDir() { return spill_dir_; }

  ShardedMatchDriver::Options DriverOptions(size_t shard_pairs,
                                            ThreadPool* pool = nullptr) {
    ShardedMatchDriver::Options o;
    o.shard_pairs = shard_pairs;
    o.spill_dir = SpillDir();
    o.pool = pool;
    return o;
  }

  std::unique_ptr<GeneratedDataset> ds_;
  std::unique_ptr<FeatureCatalog> catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet pairs_;
  std::string spill_dir_;
};

// ---------------------------------------------------------------------------
// Bit-identity

TEST_F(ShardDriverTest, BitIdenticalAcrossShardSizes) {
  const MatchingFunction fn = MakeFunction();
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  for (size_t shard_pairs : {size_t{64}, size_t{128}, size_t{448},
                             size_t{4096}}) {
    PairContext fresh(ds_->a, ds_->b, *catalog_);
    ShardedMatchDriver driver(DriverOptions(shard_pairs));
    const MatchResult r = driver.Run(fn, pairs_, fresh);
    ASSERT_FALSE(r.partial) << r.status.ToString();
    EXPECT_EQ(r.matches, sr.matches) << "shard_pairs=" << shard_pairs;
    EXPECT_EQ(r.pairs_completed, sr.pairs_completed);
    ExpectSameCounters(r.stats, sr.stats);
    EXPECT_EQ(driver.shards().size(),
              (pairs_.size() + driver.shard_pairs() - 1) /
                  driver.shard_pairs());
  }
}

TEST_F(ShardDriverTest, DecisionBitmapsAndMemoSliceExactly) {
  const MatchingFunction fn = MakeFunction(5);
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(192));
  const MatchResult r = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(r.partial) << r.status.ToString();
  ASSERT_EQ(r.matches, sr.matches);

  for (size_t i = 0; i < driver.shards().size(); ++i) {
    const auto& info = driver.shards()[i];
    auto loaded = driver.LoadShardState(i);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The concatenated decision bitmaps equal the serial run's.
    for (const Rule& rule : fn.rules()) {
      ExpectSliceEqual(loaded->FindRuleTrue(rule.id()),
                       serial_state.FindRuleTrue(rule.id()), info.begin,
                       info.end, "RuleTrue " + std::to_string(rule.id()));
      for (const Predicate& p : rule.predicates()) {
        ExpectSliceEqual(loaded->FindPredFalse(p.id),
                         serial_state.FindPredFalse(p.id), info.begin,
                         info.end, "PredFalse " + std::to_string(p.id));
      }
    }
    // The shard memo is the exact slice of the monolithic memo.
    const DenseMemo& shard_memo = loaded->memo();
    const DenseMemo& serial_memo = serial_state.memo();
    ASSERT_EQ(shard_memo.num_pairs(), info.end - info.begin);
    for (size_t local = 0; local < shard_memo.num_pairs(); ++local) {
      for (FeatureId f = 0; f < serial_memo.num_features(); ++f) {
        double shard_v = 0.0, serial_v = 0.0;
        const bool sp = shard_memo.Lookup(local, f, &shard_v);
        const bool gp = serial_memo.Lookup(info.begin + local, f, &serial_v);
        ASSERT_EQ(sp, gp) << "memo presence at pair " << info.begin + local
                          << " feature " << f;
        if (gp) {
          ASSERT_EQ(shard_v, serial_v)
              << "memo value at pair " << info.begin + local << " feature "
              << f;
        }
      }
    }
  }
}

TEST_F(ShardDriverTest, PooledShardsBitIdentical) {
  const MatchingFunction fn = MakeFunction(7);
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  ThreadPool pool(4);
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(256, &pool));
  const MatchResult r = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(r.partial) << r.status.ToString();
  EXPECT_EQ(r.matches, sr.matches);
  ExpectSameCounters(r.stats, sr.stats);
}

TEST_F(ShardDriverTest, RunStreamMatchesMaterializedRun) {
  const MatchingFunction fn = MakeFunction(9);
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  // Feed the pairs in scrambled order through the external sorter; the
  // stream comes out sorted+deduped — the same sequence as pairs_.
  ExternalSortOptions sopts;
  sopts.spill_dir = SpillDir();
  sopts.file_prefix = "shardstream";
  ExternalPairSorter sorter(sopts);
  for (size_t i = pairs_.size(); i-- > 0;) {
    ASSERT_TRUE(sorter.Add(pairs_.pair(i)).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());

  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(128));
  const MatchResult r = driver.RunStream(fn, sorter, fresh);
  ASSERT_FALSE(r.partial) << r.status.ToString();
  ASSERT_EQ(r.matches.size(), pairs_.size());
  EXPECT_EQ(r.matches, sr.matches);
  ExpectSameCounters(r.stats, sr.stats);
}

TEST_F(ShardDriverTest, BudgetedAutoShardingCompletesAndReleases) {
  const MatchingFunction fn = MakeFunction(11);
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  // A budget far smaller than the monolithic memo footprint
  // (pairs × features × 4 bytes ≈ several MiB here) forces many
  // auto-sized shards, yet must still fit one shard's memo plus the
  // in-flight spilling shard's.
  MemoryBudget budget(768u << 10, "shard-test");
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver::Options o = DriverOptions(0);
  o.budget = &budget;
  ShardedMatchDriver driver(o);
  const MatchResult r = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(r.partial) << r.status.ToString();
  EXPECT_EQ(r.matches, sr.matches);
  EXPECT_GT(driver.shards().size(), 1u)
      << "budget did not force multiple shards";
  EXPECT_EQ(budget.used(), 0u) << "driver leaked billing";
}

TEST_F(ShardDriverTest, AutoShardPairsDerivation) {
  EXPECT_EQ(ShardedMatchDriver::AutoShardPairs(nullptr, 30),
            size_t{1} << 18);
  MemoryBudget small(64u << 10, "t");
  const size_t p = ShardedMatchDriver::AutoShardPairs(&small, 30);
  EXPECT_EQ(p % 64, 0u);
  EXPECT_GE(p, 64u);
  MemoryBudget large(1u << 30, "t");
  EXPECT_GE(ShardedMatchDriver::AutoShardPairs(&large, 30), p);
}

// ---------------------------------------------------------------------------
// Robustness: cancellation and injected faults

TEST_F(ShardDriverTest, PreCancelledRunIsCleanlyPartial) {
  const MatchingFunction fn = MakeFunction();
  CancellationToken cancel;
  cancel.RequestCancel();
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(128));
  const MatchResult r = driver.Run(fn, pairs_, fresh, RunControl(cancel));
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.matches.Count(), 0u);
  // A later uncontrolled run on the same driver completes normally.
  const MatchResult ok = driver.Run(fn, pairs_, fresh);
  EXPECT_FALSE(ok.partial);
}

TEST_F(ShardDriverTest, SpillWriteFaultStopsCleanlyWithExactPrefix) {
  const MatchingFunction fn = MakeFunction();
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  // Fail the third shard's spill: shards 0-2 evaluated (the failing
  // shard's bits are still valid — only its spill failed), the rest
  // untouched.
  FaultInjection::Plan plan;
  plan.skip = 2;  // every = 0: fail exactly once, on the third spill
  FaultInjection::Arm("spill.write", plan);
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(128));
  const MatchResult r = driver.Run(fn, pairs_, fresh);
  FaultInjection::DisarmAll();

  ASSERT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kIoError);
  ASSERT_EQ(r.evaluated.size(), pairs_.size());
  size_t evaluated = 0;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (r.evaluated.Get(i)) {
      ++evaluated;
      ASSERT_EQ(r.matches.Get(i), sr.matches.Get(i))
          << "evaluated bit wrong at " << i;
    } else {
      ASSERT_FALSE(r.matches.Get(i)) << "unevaluated bit set at " << i;
    }
  }
  EXPECT_EQ(evaluated, 3u * 128) << "expected exactly three shards done";
}

TEST_F(ShardDriverTest, SingleBudgetDenialAtEverySiteIsHarmless) {
  const MatchingFunction fn = MakeFunction();
  MatchState serial_state;
  const MatchResult sr = SerialBaseline(fn, &serial_state);

  // One injected denial at the k-th mem.reserve call, for every k until
  // a run sees no injection: each run must either complete bit-identical
  // or fail cleanly partial. Never silently wrong bits.
  size_t completed = 0;
  for (uint64_t skip = 0; skip < 64; ++skip) {
    FaultInjection::DisarmAll();
    FaultInjection::Plan plan;
    plan.skip = skip;
    FaultInjection::Arm("mem.reserve", plan);

    MemoryBudget budget(1u << 20, "fault-run");
    PairContext fresh(ds_->a, ds_->b, *catalog_,
                      PairContext::Options{.budget = &budget});
    ShardedMatchDriver::Options o = DriverOptions(128);
    o.budget = &budget;
    ShardedMatchDriver driver(o);
    const MatchResult r = driver.Run(fn, pairs_, fresh);
    const uint64_t fired = FaultInjection::Failures("mem.reserve");
    FaultInjection::DisarmAll();

    if (r.partial) {
      EXPECT_FALSE(r.status.ok());
      for (size_t i = 0; i < pairs_.size(); ++i) {
        if (r.evaluated.size() > 0 && r.evaluated.Get(i)) {
          ASSERT_EQ(r.matches.Get(i), sr.matches.Get(i))
              << "skip=" << skip << " wrong evaluated bit at " << i;
        }
      }
    } else {
      ASSERT_EQ(r.matches, sr.matches) << "skip=" << skip;
      ++completed;
    }
    if (fired == 0) break;  // past the last reservation site
  }
  EXPECT_GT(completed, 0u)
      << "denials should be absorbed at degradable sites";
}

// ---------------------------------------------------------------------------
// Incremental re-match over spilled state

TEST_F(ShardDriverTest, RematchAllDirtyEqualsFreshRunOfEditedFunction) {
  MatchingFunction fn = MakeFunction(13);
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(128));
  const MatchResult first = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(first.partial);

  // Edit: tighten the first predicate of every rule, then re-match with
  // every pair dirty. Must equal a from-scratch serial run of the edited
  // function.
  for (size_t i = 0; i < fn.num_rules(); ++i) {
    Rule& rule = fn.mutable_rule(i);
    if (!rule.predicates().empty()) {
      const Predicate& p = rule.predicates().front();
      ASSERT_TRUE(fn.SetThreshold(rule.id(), p.id,
                                  std::min(1.0, p.threshold + 0.07))
                      .ok());
    }
  }
  MatchState edited_state;
  const MatchResult edited_serial = SerialBaseline(fn, &edited_state);

  Bitmap all_dirty(pairs_.size(), true);
  const MatchResult rematched = driver.Rematch(fn, pairs_, fresh, all_dirty);
  ASSERT_FALSE(rematched.partial) << rematched.status.ToString();
  EXPECT_EQ(rematched.matches, edited_serial.matches);
  // Warm memo: only features on newly reached short-circuit paths (rules
  // the first run never evaluated for a pair) are computed fresh; the
  // bulk must come from the spilled memo.
  EXPECT_LT(rematched.stats.feature_computations,
            edited_serial.stats.feature_computations / 2);
  EXPECT_GT(rematched.stats.memo_hits, 0u);
}

TEST_F(ShardDriverTest, RematchTouchesOnlyDirtyShards) {
  const MatchingFunction fn = MakeFunction(15);
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(128));
  const MatchResult first = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(first.partial);

  // No edit, one dirty pair in shard 2: the result must be unchanged and
  // the work bounded by one shard.
  Bitmap dirty(pairs_.size());
  dirty.Set(2 * 128 + 5);
  const MatchResult r = driver.Rematch(fn, pairs_, fresh, dirty);
  ASSERT_FALSE(r.partial) << r.status.ToString();
  EXPECT_EQ(r.matches, first.matches);
  EXPECT_LE(r.stats.rule_evaluations, first.stats.rule_evaluations / 2)
      << "re-match did not skip clean shards";

  // Zero dirty pairs: pure no-op.
  Bitmap clean(pairs_.size());
  const MatchResult noop = driver.Rematch(fn, pairs_, fresh, clean);
  ASSERT_FALSE(noop.partial);
  EXPECT_EQ(noop.matches, first.matches);
  EXPECT_EQ(noop.stats.rule_evaluations, 0u);
}

TEST_F(ShardDriverTest, RematchGuardsItsPreconditions) {
  const MatchingFunction fn = MakeFunction();
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  // Before any run:
  {
    ShardedMatchDriver driver(DriverOptions(128));
    Bitmap dirty(pairs_.size(), true);
    const MatchResult r = driver.Rematch(fn, pairs_, fresh, dirty);
    EXPECT_TRUE(r.partial);
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  }
  // keep_state off:
  {
    ShardedMatchDriver::Options o = DriverOptions(128);
    o.keep_state = false;
    ShardedMatchDriver driver(o);
    const MatchResult first = driver.Run(fn, pairs_, fresh);
    ASSERT_FALSE(first.partial);
    EXPECT_TRUE(driver.shards().front().state_path.empty());
    Bitmap dirty(pairs_.size(), true);
    const MatchResult r = driver.Rematch(fn, pairs_, fresh, dirty);
    EXPECT_TRUE(r.partial);
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(ShardDriverTest, SpillAndRecoverRoundTripsShardState) {
  const MatchingFunction fn = MakeFunction(17);
  PairContext fresh(ds_->a, ds_->b, *catalog_);
  ShardedMatchDriver driver(DriverOptions(256));
  const MatchResult r = driver.Run(fn, pairs_, fresh);
  ASSERT_FALSE(r.partial);
  ASSERT_GT(driver.spilled_bytes(), 0u);

  // Every shard's state reloads from its CRC-checked container and its
  // match bits agree with the merged global bitmap.
  for (size_t i = 0; i < driver.shards().size(); ++i) {
    const auto& info = driver.shards()[i];
    auto loaded = driver.LoadShardState(i);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (size_t local = 0; local < info.end - info.begin; ++local) {
      ASSERT_EQ(loaded->matches().Get(local),
                r.matches.Get(info.begin + local))
          << "shard " << i << " local " << local;
    }
  }
}

}  // namespace
}  // namespace emdbg
