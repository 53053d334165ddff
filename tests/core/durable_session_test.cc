#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/core/edit_log.h"
#include "src/core/rule_parser.h"
#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// Durability/crash-recovery tests. A "crash" is simulated by abandoning
/// the session object: everything the contract promises to survive a
/// kill -9 is already fsync'd on disk, and nothing in the destructor
/// cleans up, so a dropped session is indistinguishable from a killed
/// process as far as the files are concerned.
class DurableSessionTest : public ::testing::Test {
 protected:
  DurableSessionTest()
      : dir_(::testing::TempDir() + "/emdbg_durable_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
  }

  ~DurableSessionTest() override { std::filesystem::remove_all(dir_); }

  /// A session over the deterministic SmallProducts dataset with two
  /// rules and a completed first run. Every call builds an identical
  /// session (same generator seed), which is the recovery contract: the
  /// tables/candidates must match the crashed session's.
  std::unique_ptr<DebugSession> FreshSession() {
    GeneratedDataset ds = testing::SmallProducts();
    auto session = std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
    EXPECT_TRUE(
        session->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
    EXPECT_TRUE(
        session
            ->AddRuleText("r2: exact_match(modelno, modelno) >= 1 AND "
                          "jaro_winkler(brand, brand) >= 0.85")
            .ok());
    session->Run();
    EXPECT_TRUE(session->has_run());
    return session;
  }

  /// A blank session over the same dataset — the recovery target (Recover
  /// requires a session that has not run yet).
  std::unique_ptr<DebugSession> FreshSessionForRecovery() {
    GeneratedDataset ds = testing::SmallProducts();
    return std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
  }

  /// The session's rules in a canonical text form: one line per rule, its
  /// predicates sorted, the lines sorted. The cost model orders rules and
  /// the predicates inside each rule by costs it times on the wall clock,
  /// so two sessions holding the same rules may list them differently
  /// (the reason SessionStateDigest sorts too).
  std::string Dsl(DebugSession& s) {
    std::vector<std::string> lines;
    for (const Rule& rule : s.function().rules()) {
      std::vector<std::string> preds;
      for (size_t i = 0; i < rule.size(); ++i) {
        preds.push_back(PredicateToDsl(rule.predicate(i), s.catalog()));
      }
      std::sort(preds.begin(), preds.end());
      std::string line = rule.name() + ":";
      for (const std::string& pred : preds) line += " " + pred;
      lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

  /// Rule `rule`'s predicate on `feature` (e.g. "jaccard(title, title)").
  /// Edits and checks find rules and predicates by name, never by
  /// position, since the cost model may order them differently in each
  /// session (see Dsl()).
  static const Predicate& Pred(DebugSession& s, std::string_view rule,
                               std::string_view feature) {
    const MatchingFunction& fn = s.function();
    for (size_t i = 0; i < fn.num_rules(); ++i) {
      if (fn.rule(i).name() != rule) continue;
      for (size_t k = 0; k < fn.rule(i).size(); ++k) {
        const Predicate& p = fn.rule(i).predicate(k);
        if (s.catalog().Name(p.feature) == feature) return p;
      }
    }
    ADD_FAILURE() << "no predicate " << rule << ": " << feature;
    static const Predicate kMissing{};
    return kMissing;
  }

  static RuleId RuleByName(DebugSession& s, std::string_view name) {
    const MatchingFunction& fn = s.function();
    for (size_t i = 0; i < fn.num_rules(); ++i) {
      if (fn.rule(i).name() == name) return fn.rule(i).id();
    }
    ADD_FAILURE() << "no rule named " << name;
    return kInvalidRule;
  }

  /// Sets, and reads, r1's only threshold (on jaccard(title, title)).
  static Status SetR1(DebugSession& s, double threshold) {
    return s.SetThreshold(RuleByName(s, "r1"),
                          Pred(s, "r1", "jaccard(title, title)").id,
                          threshold);
  }

  static double R1Threshold(DebugSession& s) {
    return Pred(s, "r1", "jaccard(title, title)").threshold;
  }

  std::string journal_path() const { return dir_ + "/journal.log"; }

  std::string dir_;
};

TEST_F(DurableSessionTest, EnableRequiresCompletedRun) {
  GeneratedDataset ds = testing::SmallProducts();
  DebugSession session(std::move(ds.a), std::move(ds.b),
                       std::move(ds.candidates));
  EXPECT_EQ(session.EnableDurability(dir_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DurableSessionTest, EnableWritesCheckpointFiles) {
  auto session = FreshSession();
  ASSERT_TRUE(session->EnableDurability(dir_).ok());
  EXPECT_TRUE(session->durable());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.meta"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.features"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.rules"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.state"));
  EXPECT_TRUE(std::filesystem::exists(journal_path()));
  EXPECT_EQ(session->EnableDurability(dir_).code(),
            StatusCode::kFailedPrecondition)
      << "double enable";
}

TEST_F(DurableSessionTest, RecoverRestoresEditsFromJournal) {
  // Survivor: same edits, no crash — the ground truth.
  auto survivor = FreshSession();

  {
    auto session = FreshSession();
    // Large cadence: all edits stay in the journal, none in a checkpoint.
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    for (DebugSession* s : {session.get(), survivor.get()}) {
      ASSERT_TRUE(
          s->AddRuleText("r3: jaccard(category, category) >= 0.9").ok());
      ASSERT_TRUE(SetR1(*s, 0.65).ok());
      ASSERT_TRUE(s->RemoveRule(RuleByName(*s, "r2")).ok());
    }
    EXPECT_EQ(session->edits_since_checkpoint(), 3u);
    EXPECT_EQ(Dsl(*session), Dsl(*survivor));
    // Crash: session dropped without a checkpoint.
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_TRUE(recovered->durable());
  EXPECT_TRUE(recovered->has_run());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
  EXPECT_EQ(recovered->Run(), survivor->Run());

  // The recovered memo is live: further identical edits stay in lockstep.
  for (DebugSession* s : {recovered.get(), survivor.get()}) {
    ASSERT_TRUE(SetR1(*s, 0.45).ok());
  }
  EXPECT_EQ(recovered->Run(), survivor->Run());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
}

TEST_F(DurableSessionTest, CheckpointCadenceTruncatesJournal) {
  auto session = FreshSession();
  ASSERT_TRUE(session->EnableDurability(dir_, 2).ok());

  ASSERT_TRUE(SetR1(*session, 0.61).ok());
  EXPECT_EQ(session->edits_since_checkpoint(), 1u);
  {
    auto contents = EditJournal::Read(journal_path());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->epoch, 1u);
    EXPECT_EQ(contents->records.size(), 1u);
  }

  // Second edit crosses the cadence: checkpoint + fresh journal.
  ASSERT_TRUE(SetR1(*session, 0.62).ok());
  EXPECT_EQ(session->edits_since_checkpoint(), 0u);
  {
    auto contents = EditJournal::Read(journal_path());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->epoch, 2u);
    EXPECT_TRUE(contents->records.empty());
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.2.state"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/checkpoint.1.state"))
      << "superseded epoch files must be cleaned up";

  // Crash now; recovery needs only the checkpoint.
  session.reset();
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_DOUBLE_EQ(R1Threshold(*recovered), 0.62);
}

TEST_F(DurableSessionTest, TornFinalJournalRecordIsDropped) {
  double original_threshold = 0.0;
  {
    auto session = FreshSession();
    original_threshold = R1Threshold(*session);
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  }
  // Simulate a crash mid-append: a half-written record with no newline
  // and a CRC that cannot match.
  {
    std::FILE* f = std::fopen(journal_path().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("00000000 set_thresho", f);
    std::fclose(f);
  }
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok())
      << "a torn tail is the signature of a crash mid-append and must "
         "be tolerated";
  EXPECT_DOUBLE_EQ(R1Threshold(*recovered), original_threshold)
      << "the torn edit never committed and must not be applied";
}

TEST_F(DurableSessionTest, CorruptEarlierJournalRecordIsParseError) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    ASSERT_TRUE(SetR1(*session, 0.61).ok());
    ASSERT_TRUE(SetR1(*session, 0.62).ok());
  }
  // Flip one payload byte of the first record; the second record after it
  // means this is not a torn tail.
  auto text = ReadFileToString(journal_path());
  ASSERT_TRUE(text.ok());
  const size_t first_record = text->find('\n') + 1;
  const size_t payload = text->find(' ', first_record) + 1;
  (*text)[payload] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(journal_path(), *text).ok());

  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, StaleEpochJournalIsIgnored) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  }
  // A journal left behind by an older epoch (crash between the meta
  // write and the journal reset): structurally valid, wrong epoch. Its
  // record would remove a rule if it were wrongly replayed.
  const std::string payload = "remove_rule 0";
  const std::string stale = "EMDBGJ1 999\n" +
                            StrFormat("%08x ", Crc32c(payload)) + payload +
                            "\n";
  ASSERT_TRUE(WriteStringToFile(journal_path(), stale).ok());

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(recovered->function().num_rules(), 2u)
      << "a stale journal's edits are inside the checkpoint already";
}

TEST_F(DurableSessionTest, MissingJournalMeansNothingToReplay) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  std::filesystem::remove(journal_path());
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(recovered->function().num_rules(), 2u);
}

TEST_F(DurableSessionTest, UndoIsJournaledAsItsInverse) {
  auto survivor = FreshSession();
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    for (DebugSession* s : {session.get(), survivor.get()}) {
      ASSERT_TRUE(SetR1(*s, 0.9).ok());
      ASSERT_TRUE(
          s->AddRuleText("r3: jaccard(category, category) >= 0.8").ok());
      ASSERT_TRUE(s->Undo().ok());  // removes r3 again
      ASSERT_TRUE(s->Undo().ok());  // threshold back to the original
    }
  }
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
  EXPECT_EQ(recovered->Run(), survivor->Run());
}

TEST_F(DurableSessionTest, RecoverFromMissingDirIsIoError) {
  auto session = FreshSessionForRecovery();
  EXPECT_EQ(session->Recover(dir_ + "/nope").code(), StatusCode::kIoError);
}

TEST_F(DurableSessionTest, CorruptMetaIsParseError) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  ASSERT_TRUE(
      WriteStringToFile(dir_ + "/checkpoint.meta", "WHATEVER 1\n").ok());
  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, CorruptStateFileIsDetectedByCrc) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  const std::string state_path = dir_ + "/checkpoint.1.state";
  auto bytes = ReadFileToString(state_path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;  // one flipped bit mid-file
  ASSERT_TRUE(WriteStringToFile(state_path, *bytes).ok());

  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, RecoverAfterEnableOnRecoveredSession) {
  // Recovery chains: crash, recover, edit, crash again, recover again.
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    ASSERT_TRUE(SetR1(*session, 0.7).ok());
  }
  {
    auto recovered = FreshSessionForRecovery();
    ASSERT_TRUE(recovered->Recover(dir_, 100).ok());
    EXPECT_DOUBLE_EQ(R1Threshold(*recovered), 0.7);
    ASSERT_TRUE(
        recovered
            ->AddRuleText("r3: jaccard(category, category) >= 0.95")
            .ok());
  }
  auto again = FreshSessionForRecovery();
  ASSERT_TRUE(again->Recover(dir_).ok());
  EXPECT_EQ(again->function().num_rules(), 3u);
  EXPECT_DOUBLE_EQ(R1Threshold(*again), 0.7);
}

}  // namespace
}  // namespace emdbg
