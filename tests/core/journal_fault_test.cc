#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/core/edit_log.h"
#include "src/core/rule_parser.h"
#include "src/util/fault_injection.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// Journal recovery under injected failures — the contracts the serve
/// layer's ack-after-fsync protocol leans on:
///
///  * journal.write fires *before* the record reaches the file, so a
///    failed edit is guaranteed absent on disk: recovery restores exactly
///    the acknowledged edits.
///  * journal.fsync fires *after* the record is in the file; the journal
///    then truncates the record away again, so recovery restores exactly
///    the acknowledged edits and a client may retry the failed one.
///    Acked edits are never lost either way.
///  * A checkpoint that tears mid-write (state.atomic_write) leaves the
///    previous checkpoint + journal authoritative.
///  * Recovery is idempotent: recovering the same directory twice gives
///    bit-identical sessions and does not disturb the files.
class JournalFaultTest : public ::testing::Test {
 protected:
  JournalFaultTest()
      : dir_(::testing::TempDir() + "/emdbg_jfault_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
    FaultInjection::DisarmAll();
  }

  ~JournalFaultTest() override {
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  /// A session over the deterministic test corpus with one rule and a
  /// completed run (EnableDurability requires one).
  std::unique_ptr<DebugSession> FreshSession() {
    GeneratedDataset ds = testing::SmallProducts();
    auto session = std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
    EXPECT_TRUE(
        session->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
    session->Run();
    return session;
  }

  std::unique_ptr<DebugSession> FreshSessionForRecovery() {
    GeneratedDataset ds = testing::SmallProducts();
    return std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
  }

  std::string Dsl(DebugSession& s) {
    return FunctionToDsl(s.function(), s.catalog());
  }

  Status SetR1Threshold(DebugSession& s, double t) {
    const Rule& r1 = s.function().rule(0);
    return s.SetThreshold(r1.id(), r1.predicate(0).id, t);
  }

  std::string dir_;
};

TEST_F(JournalFaultTest, FsyncFaultRollsBackTheUnackedEdit) {
  std::string acked_dsl;
  std::string unacked_dsl;
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());

    ASSERT_TRUE(SetR1Threshold(*session, 0.61).ok());  // acked
    acked_dsl = Dsl(*session);

    // The next journal fsync fails after the record reached the file.
    FaultInjection::Arm("journal.fsync", FaultInjection::Plan{});
    const Status failed = SetR1Threshold(*session, 0.62);
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_NE(failed.message().find("rolled back"), std::string::npos)
        << failed.message();
    EXPECT_EQ(FaultInjection::Failures("journal.fsync"), 1u);
    FaultInjection::DisarmAll();
    // In-memory the edit applied (the caller was told otherwise — the
    // serve layer reacts by degrading the session to this journal).
    unacked_dsl = Dsl(*session);
    ASSERT_NE(acked_dsl, unacked_dsl);
    // Crash without checkpointing.
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  // The failed append truncated its record away, so replay restores
  // exactly the acknowledged state: a client that retries the edit after
  // resuming applies it once.
  EXPECT_EQ(Dsl(*recovered), acked_dsl)
      << "recovery must restore the acknowledged edits, nothing more";
  EXPECT_DOUBLE_EQ(recovered->function().rule(0).predicate(0).threshold,
                   0.61);
}

TEST_F(JournalFaultTest, WriteFaultRecoversAckedEditsExactly) {
  std::string acked_dsl;
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());

    ASSERT_TRUE(SetR1Threshold(*session, 0.61).ok());
    ASSERT_TRUE(
        session->AddRuleText("r2: jaccard(brand, brand) >= 0.7").ok());
    acked_dsl = Dsl(*session);

    // journal.write fires before anything reaches the file: the failed
    // edit is guaranteed absent on disk.
    FaultInjection::Arm("journal.write", FaultInjection::Plan{});
    EXPECT_EQ(SetR1Threshold(*session, 0.99).code(), StatusCode::kIoError);
    FaultInjection::DisarmAll();
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*recovered), acked_dsl)
      << "recovery must restore the acknowledged edits, nothing more";
  EXPECT_DOUBLE_EQ(recovered->function().rule(0).predicate(0).threshold,
                   0.61);
}

TEST_F(JournalFaultTest, TornCheckpointFallsBackToJournalReplay) {
  std::string expected_dsl;
  {
    auto session = FreshSession();
    // Cadence 2: the second edit triggers a checkpoint.
    ASSERT_TRUE(session->EnableDurability(dir_, 2).ok());
    ASSERT_TRUE(SetR1Threshold(*session, 0.61).ok());

    // The checkpoint write tears partway through: the temp file is left
    // behind, the rename never happens, epoch 1 stays authoritative.
    FaultInjection::Arm("state.atomic_write", FaultInjection::Plan{});
    (void)SetR1Threshold(*session, 0.62);
    FaultInjection::DisarmAll();
    expected_dsl = Dsl(*session);
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok())
      << "a torn checkpoint must not strand the session";
  // Whether or not the 0.62 edit's journal record landed before the
  // checkpoint attempt, the recovered threshold is one of the two edit
  // values — never the pre-edit default.
  const double t = recovered->function().rule(0).predicate(0).threshold;
  EXPECT_TRUE(t == 0.61 || t == 0.62) << "threshold " << t;
  // And the fallback files must support *another* crash + recovery.
  auto again = FreshSessionForRecovery();
  ASSERT_TRUE(again->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*again), Dsl(*recovered));
  (void)expected_dsl;
}

TEST_F(JournalFaultTest, DoubleRecoverIsIdempotent) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    ASSERT_TRUE(SetR1Threshold(*session, 0.66).ok());
    ASSERT_TRUE(
        session->AddRuleText("r2: jaccard(category, category) >= 0.8").ok());
  }

  auto first = FreshSessionForRecovery();
  ASSERT_TRUE(first->Recover(dir_).ok());
  const std::string first_dsl = Dsl(*first);
  const auto first_run = first->Run();
  // Recovering rewrote nothing the second recovery depends on: a fresh
  // session over the same directory lands in the identical state.
  auto second = FreshSessionForRecovery();
  ASSERT_TRUE(second->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*second), first_dsl);
  EXPECT_EQ(second->Run(), first_run);
}

TEST_F(JournalFaultTest, RepeatedFsyncFaultsNeverLoseAckedEdits) {
  // A hostile disk: every 3rd journal fsync fails across a burst of
  // edits. Whatever subset of the burst gets acked must survive.
  double last_acked_t = -1.0;
  int acked = 0;
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    FaultInjection::Plan plan;
    plan.every = 3;
    FaultInjection::Arm("journal.fsync", plan);
    for (int i = 0; i < 10; ++i) {
      const double t = 0.50 + 0.01 * i;
      const Status s = SetR1Threshold(*session, t);
      if (s.ok()) {
        ++acked;
        last_acked_t = t;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kIoError);
      }
    }
    FaultInjection::DisarmAll();
    EXPECT_GT(acked, 0);
    EXPECT_LT(acked, 10);
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  // set_threshold edits are totally ordered on one predicate: the
  // recovered threshold is at least the last acked one (failed appends
  // are rolled back, so nothing pushes it further forward), and never
  // beyond the last value attempted.
  const double recovered_t =
      recovered->function().rule(0).predicate(0).threshold;
  EXPECT_GE(recovered_t, last_acked_t - 1e-12)
      << "an acknowledged edit was rolled back";
  EXPECT_LE(recovered_t, 0.59 + 1e-12);
}

}  // namespace
}  // namespace emdbg
