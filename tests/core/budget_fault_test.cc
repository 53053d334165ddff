#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/serve/session_digest.h"
#include "src/util/fault_injection.h"
#include "src/util/memory_budget.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// The resource governor's correctness matrix: every memory reservation
/// in the match path (memo capacity, token/id cache fills, interner
/// growth, per-worker scratch, recovery) is a potential denial point, and
/// a denial must never corrupt state — the operation either completes
/// with bit-identical results (a cache layer degraded) or fails cleanly
/// with ResourceExhausted leaving the prior state untouched. The
/// mem.reserve fault site drives the matrix without needing real memory
/// pressure.
class BudgetFaultTest : public ::testing::Test {
 protected:
  BudgetFaultTest()
      : dir_(::testing::TempDir() + "/emdbg_bfault_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
    FaultInjection::DisarmAll();
  }

  ~BudgetFaultTest() override {
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  struct Outcome {
    size_t matches = 0;
    uint32_t digest = 0;
  };

  /// Stable-id lookup by rule *name*. Positional capture
  /// (`s.function().rule(0)`) is wrong here: the ordering strategy
  /// permutes the rule vector using *measured* feature costs, so which
  /// rule sits at index 0 after a run is a timing coin-flip — the
  /// original source of this suite's famous 27-vs-64 flake (the workload
  /// sometimes edited r2 where it meant r1).
  static RuleId RuleByName(const DebugSession& s, std::string_view name) {
    const MatchingFunction& fn = s.function();
    for (size_t i = 0; i < fn.num_rules(); ++i) {
      if (fn.rule(i).name() == name) return fn.rule(i).id();
    }
    ADD_FAILURE() << "no rule named " << name;
    return kInvalidRule;
  }

  static PredicateId FirstPredicateOf(const DebugSession& s, RuleId rid) {
    const MatchingFunction& fn = s.function();
    for (size_t i = 0; i < fn.num_rules(); ++i) {
      if (fn.rule(i).id() == rid) return fn.rule(i).predicate(0).id;
    }
    ADD_FAILURE() << "no rule with id " << rid;
    return kInvalidPredicate;
  }

  /// Formats the budget's denial log for failure messages: which
  /// reservation sites actually absorbed the injected denials.
  static std::string DeniedList(const MemoryBudget& budget) {
    std::string out;
    for (const std::string& d : budget.DeniedConsumers()) {
      if (!out.empty()) out += ", ";
      out += d;
    }
    return out.empty() ? "<none>" : out;
  }

  std::unique_ptr<DebugSession> MakeSession(const DebugSession::Options& o) {
    GeneratedDataset ds = testing::SmallProducts();
    return std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates), o);
  }

  /// The canonical workload: base rule, full run, then a post-run editing
  /// burst (the incremental path). Each step tolerates exactly-once
  /// injected denials by retrying — the fault plans in the matrix fail a
  /// single reservation, so one retry must always succeed.
  Outcome RunWorkload(DebugSession& s) {
    auto edit = [&](auto&& fn) {
      Status st = fn();
      if (st.code() == StatusCode::kResourceExhausted) st = fn();
      EXPECT_TRUE(st.ok()) << st.message();
    };
    edit([&] {
      return s.AddRuleText("r1: jaccard(title, title) >= 0.5").status();
    });
    edit([&] {
      return s.AddRuleText("r2: jaccard(brand, brand) >= 0.4").status();
    });
    for (int attempt = 0; attempt < 3; ++attempt) {
      MatchResult r = s.Run(RunControl());
      if (!r.partial) break;
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
          << r.status.message();
    }
    EXPECT_TRUE(s.has_run());
    // Capture ids by name, not position: the run above may have
    // reordered the rule vector (see RuleByName).
    const RuleId r1_id = RuleByName(s, "r1");
    const PredicateId p1_id = FirstPredicateOf(s, r1_id);
    edit([&] { return s.SetThreshold(r1_id, p1_id, 0.62); });
    edit([&] { return s.RemoveRule(RuleByName(s, "r2")); });
    edit([&] {
      return s.AddRuleText("r3: jaccard(title, title) >= 0.71").status();
    });
    edit([&] { return s.SetThreshold(r1_id, p1_id, 0.55); });
    edit([&] { return s.Undo(); });
    Outcome out;
    out.matches = s.Run().Count();
    out.digest = SessionStateDigest(s);
    return out;
  }

  Outcome Baseline() {
    auto s = MakeSession(DebugSession::Options{});
    return RunWorkload(*s);
  }

  std::string dir_;
};

TEST_F(BudgetFaultTest, SingleDenialAtEveryReservationSiteIsHarmless) {
  const Outcome want = Baseline();
  ASSERT_GT(want.matches, 0u);
  // One matrix row per reservation index: the skip-th reservation fails,
  // everything before and after succeeds. Covers the memo EnsureCapacity,
  // cache-fill billing, interner growth and scratch reservations as they
  // occur in workload order.
  for (uint64_t skip = 0; skip < 24; ++skip) {
    FaultInjection::DisarmAll();
    FaultInjection::Plan plan;
    plan.skip = skip;
    plan.every = 0;  // fail exactly once
    FaultInjection::Arm("mem.reserve", plan);
    MemoryBudget budget(0, "matrix");
    DebugSession::Options o;
    o.budget = &budget;
    auto s = MakeSession(o);
    const Outcome got = RunWorkload(*s);
    EXPECT_EQ(got.matches, want.matches)
        << "skip=" << skip << " denied=[" << DeniedList(budget) << "]";
    EXPECT_EQ(got.digest, want.digest)
        << "skip=" << skip << " denied=[" << DeniedList(budget) << "]";
    FaultInjection::DisarmAll();
    // Everything the session billed must drain when it dies.
    s.reset();
    EXPECT_EQ(budget.used(), 0u) << "skip=" << skip;
  }
}

TEST_F(BudgetFaultTest, PeriodicDenialsDegradeButNeverDiverge) {
  const Outcome want = Baseline();
  for (uint64_t every : {2, 5, 11}) {
    FaultInjection::DisarmAll();
    FaultInjection::Plan plan;
    plan.every = every;
    FaultInjection::Arm("mem.reserve", plan);
    MemoryBudget budget(0, "periodic");
    DebugSession::Options o;
    o.budget = &budget;
    auto s = MakeSession(o);
    auto tolerant = [&](auto&& fn) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        Status st = fn();
        if (st.ok()) return;
        ASSERT_EQ(st.code(), StatusCode::kResourceExhausted)
            << st.message();
      }
      FAIL() << "step kept failing under every=" << every;
    };
    // The same edit sequence as RunWorkload, with deeper retry budgets —
    // under every-Nth denials a single step can fail several times.
    tolerant([&] {
      return s->AddRuleText("r1: jaccard(title, title) >= 0.5").status();
    });
    tolerant([&] {
      return s->AddRuleText("r2: jaccard(brand, brand) >= 0.4").status();
    });
    for (int attempt = 0; attempt < 8; ++attempt) {
      if (!s->Run(RunControl()).partial) break;
    }
    ASSERT_TRUE(s->has_run());
    const RuleId r1_id = RuleByName(*s, "r1");
    const PredicateId p1_id = FirstPredicateOf(*s, r1_id);
    tolerant([&] { return s->SetThreshold(r1_id, p1_id, 0.62); });
    tolerant([&] { return s->RemoveRule(RuleByName(*s, "r2")); });
    tolerant([&] {
      return s->AddRuleText("r3: jaccard(title, title) >= 0.71").status();
    });
    tolerant([&] { return s->SetThreshold(r1_id, p1_id, 0.55); });
    tolerant([&] { return s->Undo(); });
    FaultInjection::DisarmAll();
    EXPECT_EQ(s->Run().Count(), want.matches)
        << "every=" << every << " denied=[" << DeniedList(budget) << "]";
    EXPECT_EQ(SessionStateDigest(*s), want.digest)
        << "every=" << every << " denied=[" << DeniedList(budget) << "]";
  }
}

TEST_F(BudgetFaultTest, CacheDegradationUnderRealPressureIsBitIdentical) {
  const Outcome want = Baseline();
  // Measure what an unconstrained session actually holds, then rerun with
  // a budget that fits the memo but not all the caches: the context must
  // degrade (drop id columns, re-tokenize per call) instead of failing,
  // and the results must not move by a single bit.
  DebugSession::MemoryFootprint full;
  {
    auto s = MakeSession(DebugSession::Options{});
    RunWorkload(*s);
    full = s->Footprint();
  }
  ASSERT_GT(full.memo_bytes, 0u);
  ASSERT_GT(full.id_cache_bytes, 0u);
  const size_t limit = full.memo_bytes + full.interner_bytes +
                       full.id_cache_bytes / 2 + (64u << 10);
  MemoryBudget budget(limit, "tight");
  DebugSession::Options o;
  o.budget = &budget;
  auto s = MakeSession(o);
  const Outcome got = RunWorkload(*s);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_LE(budget.peak(), limit);  // the accountant never over-admits
  // The squeeze must actually have happened for this test to mean
  // anything.
  EXPECT_GT(s->context().budget_denials() +
                (s->context().id_path_degraded() ? 1u : 0u),
            0u);
  s.reset();
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(BudgetFaultTest, HopelessBudgetFailsTheRunCleanly) {
  // Below the memo matrix's own footprint (pairs × features × 4 = 3600
  // bytes here): the caches can degrade to nothing, but the run's memo
  // reservation itself must be denied.
  MemoryBudget budget(2048, "hopeless");
  DebugSession::Options o;
  o.budget = &budget;
  auto s = MakeSession(o);
  ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
  MatchResult r = s->Run(RunControl());
  ASSERT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
      << r.status.message();
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_FALSE(s->has_run());  // a denied first run does not start the
                               // session; edits stay in the pre-run regime
  ASSERT_TRUE(s->AddRuleText("r2: jaccard(brand, brand) >= 0.9").ok());
  EXPECT_LE(budget.used(), budget.limit());
}

TEST_F(BudgetFaultTest, RecoveryUnderDenialsEitherSucceedsOrLeavesDiskIntact) {
  // Build a durable session, record its digest, then recover it with
  // mem.reserve failing at each index in turn. Recovery must either
  // reproduce the digest exactly or fail with ResourceExhausted — and a
  // clean retry afterwards must always succeed from the untouched disk
  // state.
  uint32_t want_digest = 0;
  size_t want_matches = 0;
  {
    auto s = MakeSession(DebugSession::Options{});
    ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
    s->Run();
    ASSERT_TRUE(s->EnableDurability(dir_, 4).ok());
    const RuleId r1_id = s->function().rule(0).id();
    const PredicateId p1_id = s->function().rule(0).predicate(0).id;
    ASSERT_TRUE(s->SetThreshold(r1_id, p1_id, 0.6).ok());
    ASSERT_TRUE(
        s->AddRuleText("r2: jaccard(brand, brand) >= 0.45").ok());
    ASSERT_TRUE(s->SetThreshold(r1_id, p1_id, 0.58).ok());
    want_matches = s->Run().Count();
    want_digest = SessionStateDigest(*s);
  }
  for (uint64_t skip = 0; skip < 12; ++skip) {
    FaultInjection::DisarmAll();
    FaultInjection::Plan plan;
    plan.skip = skip;
    plan.every = 0;
    FaultInjection::Arm("mem.reserve", plan);
    MemoryBudget budget(0, "recovery");
    DebugSession::Options o;
    o.budget = &budget;
    auto s = MakeSession(o);
    Status rs = s->Recover(dir_);
    if (!rs.ok()) {
      ASSERT_EQ(rs.code(), StatusCode::kResourceExhausted)
          << "skip=" << skip << ": " << rs.message();
      FaultInjection::DisarmAll();
      auto retry = MakeSession(o);
      ASSERT_TRUE(retry->Recover(dir_).ok()) << "skip=" << skip;
      EXPECT_EQ(retry->Run().Count(), want_matches) << "skip=" << skip;
      EXPECT_EQ(SessionStateDigest(*retry), want_digest)
          << "skip=" << skip;
      continue;
    }
    FaultInjection::DisarmAll();
    EXPECT_EQ(s->Run().Count(), want_matches) << "skip=" << skip;
    EXPECT_EQ(SessionStateDigest(*s), want_digest) << "skip=" << skip;
  }
}

TEST_F(BudgetFaultTest, ParallelRunUnderBudgetMatchesSerial) {
  const Outcome want = Baseline();
  MemoryBudget budget(0, "parallel");
  DebugSession::Options o;
  o.budget = &budget;
  o.num_threads = 4;
  auto s = MakeSession(o);
  const Outcome got = RunWorkload(*s);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.digest, want.digest);
  s.reset();
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace emdbg
