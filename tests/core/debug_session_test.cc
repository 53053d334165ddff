#include "src/core/debug_session.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/memo_matcher.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class DebugSessionTest : public ::testing::Test {
 protected:
  DebugSessionTest() : ds_(testing::SmallProducts()) {}

  std::unique_ptr<DebugSession> MakeSession(DebugSession::Options options =
                                                DebugSession::Options{}) {
    return std::make_unique<DebugSession>(ds_.a, ds_.b, ds_.candidates,
                                          options);
  }

  /// From-scratch oracle over a session's current function.
  Bitmap Oracle(DebugSession& session) {
    MemoMatcher matcher;
    PairContext ctx(session.context().table_a(), session.context().table_b(),
                    session.catalog());
    return matcher.Run(session.function(), session.candidates(), ctx)
        .matches;
  }

  GeneratedDataset ds_;
};

TEST_F(DebugSessionTest, AddRuleTextAndRun) {
  auto session = MakeSession();
  auto rid = session->AddRuleText(
      "r1: exact_match(modelno, modelno) >= 1 AND "
      "jaccard(title, title) >= 0.4");
  ASSERT_TRUE(rid.ok()) << rid.status();
  const Bitmap& matches = session->Run();
  EXPECT_TRUE(session->has_run());
  EXPECT_GT(matches.Count(), 0u);
  EXPECT_EQ(matches, Oracle(*session));
}

TEST_F(DebugSessionTest, BadRuleTextIsError) {
  auto session = MakeSession();
  EXPECT_FALSE(session->AddRuleText("nonsense !!").ok());
  EXPECT_FALSE(session->AddRuleText("jaccard(title, bogus) >= 1").ok());
}

TEST_F(DebugSessionTest, ScoreAgainstLabels) {
  auto session = MakeSession();
  ASSERT_TRUE(session
                  ->AddRuleText(
                      "jaccard(title, title) >= 0.6 AND "
                      "exact_match(category, category) >= 1")
                  .ok());
  const QualityMetrics m = session->Score(ds_.labels);
  // The generated twins are similar; a reasonable rule should find some.
  EXPECT_GT(m.true_positives, 0u);
  EXPECT_GT(m.precision, 0.3);
}

TEST_F(DebugSessionTest, IncrementalEditsMatchOracle) {
  auto session = MakeSession();
  auto r1 = session->AddRuleText("jaccard(title, title) >= 0.7");
  ASSERT_TRUE(r1.ok());
  session->Run();

  // Add a rule after the first run (incremental path).
  auto r2 =
      session->AddRuleText("exact_match(modelno, modelno) >= 1");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(session->Run(), Oracle(*session));

  // Tighten the first rule's threshold.
  const Rule* rule = session->function().RuleById(*r1);
  ASSERT_NE(rule, nullptr);
  const PredicateId pid = rule->predicate(0).id;
  ASSERT_TRUE(session->SetThreshold(*r1, pid, 0.85).ok());
  EXPECT_EQ(session->Run(), Oracle(*session));

  // Remove the second rule.
  ASSERT_TRUE(session->RemoveRule(*r2).ok());
  EXPECT_EQ(session->Run(), Oracle(*session));
}

TEST_F(DebugSessionTest, EditsBeforeRunAreFree) {
  auto session = MakeSession();
  auto rid = session->AddRuleText("jaccard(title, title) >= 0.5");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(session->RemoveRule(*rid).ok());
  EXPECT_EQ(session->function().num_rules(), 0u);
  EXPECT_EQ(session->Run().Count(), 0u);
}

TEST_F(DebugSessionTest, NonIncrementalModeAgrees) {
  DebugSession::Options options;
  options.incremental = false;
  auto batch = MakeSession(options);
  auto inc = MakeSession();
  for (const char* rule :
       {"jaccard(title, title) >= 0.6",
        "exact_match(modelno, modelno) >= 1 AND trigram(title, title) >= "
        "0.3"}) {
    ASSERT_TRUE(batch->AddRuleText(rule).ok());
    ASSERT_TRUE(inc->AddRuleText(rule).ok());
  }
  EXPECT_EQ(batch->Run(), inc->Run());
  // Post-run edit in both modes.
  auto extra = batch->AddRuleText("jaro_winkler(brand, brand) >= 0.95");
  ASSERT_TRUE(extra.ok());
  auto extra2 = inc->AddRuleText("jaro_winkler(brand, brand) >= 0.95");
  ASSERT_TRUE(extra2.ok());
  EXPECT_EQ(batch->Run(), inc->Run());
}

TEST_F(DebugSessionTest, OrderingStrategiesAgreeOnResults) {
  for (const OrderingStrategy s :
       {OrderingStrategy::kAsWritten, OrderingStrategy::kRandom,
        OrderingStrategy::kIndependent, OrderingStrategy::kGreedyCost,
        OrderingStrategy::kGreedyReduction}) {
    DebugSession::Options options;
    options.ordering = s;
    auto session = MakeSession(options);
    ASSERT_TRUE(session
                    ->AddRuleText(
                        "jaccard(title, title) >= 0.6 AND "
                        "exact_match(category, category) >= 1")
                    .ok());
    ASSERT_TRUE(
        session->AddRuleText("exact_match(modelno, modelno) >= 1").ok());
    EXPECT_EQ(session->Run(), Oracle(*session))
        << OrderingStrategyName(s);
  }
}

TEST_F(DebugSessionTest, StatsAccumulate) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  const size_t after_first = session->total_stats().feature_computations;
  EXPECT_GT(after_first, 0u);
  ASSERT_TRUE(
      session->AddRuleText("exact_match(modelno, modelno) >= 1").ok());
  EXPECT_GE(session->total_stats().feature_computations, after_first);
}

TEST_F(DebugSessionTest, RuleActivityReport) {
  auto session = MakeSession();
  EXPECT_NE(session->RuleActivityReport().find("no run yet"),
            std::string::npos);
  auto rid = session->AddRuleText(
      "hot: exact_match(category, category) >= 1");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(
      session->AddRuleText("cold: jaccard(title, title) >= 0.999").ok());
  session->Run();
  const std::string report = session->RuleActivityReport();
  EXPECT_NE(report.find("hot"), std::string::npos);
  EXPECT_NE(report.find("cold"), std::string::npos);
  EXPECT_NE(report.find("exact_match(category, category)"),
            std::string::npos);
}

TEST_F(DebugSessionTest, MemoryReportMentionsMemo) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  EXPECT_NE(session->MemoryReport().find("memo:"), std::string::npos);
}

TEST_F(DebugSessionTest, ReoptimizePreservesSemantics) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  ASSERT_TRUE(
      session->AddRuleText("exact_match(modelno, modelno) >= 1").ok());
  const Bitmap before = session->Run();
  session->Reoptimize();
  EXPECT_EQ(session->Run(), before);
  EXPECT_NE(session->cost_model(), nullptr);
}

TEST_F(DebugSessionTest, UndoRevertsLastEdit) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  const Bitmap before = session->Run();
  auto extra =
      session->AddRuleText("exact_match(modelno, modelno) >= 1");
  ASSERT_TRUE(extra.ok());
  EXPECT_FALSE(session->Run() == before);
  ASSERT_TRUE(session->Undo().ok());
  EXPECT_EQ(session->Run(), before);
  EXPECT_EQ(session->function().num_rules(), 1u);
}

TEST_F(DebugSessionTest, FootprintCountsTheUndoHistory) {
  // Every post-run edit is kept for Undo; the footprint shows it growing
  // with the edits, shrinking on Undo, and inside total().
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  const size_t empty = session->Footprint().edit_log_bytes;
  std::vector<size_t> grown;
  const char* const kRules[] = {
      "exact_match(modelno, modelno) >= 1",
      "dice(title, title) >= 0.9",
      "overlap(title, title) >= 0.95",
  };
  for (const char* rule : kRules) {
    ASSERT_TRUE(session->AddRuleText(rule).ok());
    grown.push_back(session->Footprint().edit_log_bytes);
  }
  EXPECT_GT(grown[0], empty);
  EXPECT_GT(grown[1], grown[0]);
  EXPECT_GT(grown[2], grown[1]);
  const DebugSession::MemoryFootprint fp = session->Footprint();
  EXPECT_EQ(fp.total(), fp.memo_bytes + fp.id_cache_bytes +
                            fp.interner_bytes + fp.edit_log_bytes);
  ASSERT_TRUE(session->Undo().ok());
  EXPECT_EQ(session->Footprint().edit_log_bytes, grown[1]);
  ASSERT_TRUE(session->Undo().ok());
  EXPECT_EQ(session->Footprint().edit_log_bytes, grown[0]);
}

TEST_F(DebugSessionTest, UndoBeforeRunIsError) {
  auto session = MakeSession();
  EXPECT_EQ(session->Undo().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DebugSessionTest, UndoPastHistoryIsError) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  EXPECT_EQ(session->Undo().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DebugSessionTest, HistoryListsPostRunEdits) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  EXPECT_TRUE(session->History().empty());
  ASSERT_TRUE(
      session->AddRuleText("exact_match(modelno, modelno) >= 1").ok());
  EXPECT_NE(session->History().find("add rule"), std::string::npos);
}

TEST_F(DebugSessionTest, ExplainAndWhyNotPassthroughs) {
  auto session = MakeSession();
  auto rid = session->AddRuleText("r: jaccard(title, title) >= 0.99");
  ASSERT_TRUE(rid.ok());
  const Bitmap& matches = session->Run();
  // Find an unmatched true pair and interrogate it.
  for (size_t i = 0; i < session->candidates().size(); ++i) {
    if (!ds_.labels.Get(i) || matches.Get(i)) continue;
    const PairId pair = session->candidates().pair(i);
    const MatchExplanation ex = session->Explain(pair);
    EXPECT_FALSE(ex.matched);
    const auto misses = session->WhyNot(pair);
    ASSERT_FALSE(misses.empty());
    EXPECT_EQ(misses[0].rule_id, *rid);
    return;
  }
  GTEST_SKIP() << "no unmatched true pair in this dataset seed";
}

TEST_F(DebugSessionTest, SuspendAndResumeSession) {
  const std::string prefix = ::testing::TempDir() + "/emdbg_session_sr";
  Bitmap saved_matches;
  {
    auto session = MakeSession();
    ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
    ASSERT_TRUE(
        session->AddRuleText("exact_match(modelno, modelno) >= 1").ok());
    saved_matches = session->Run();
    ASSERT_TRUE(session->SaveSession(prefix).ok());
  }
  {
    auto session = MakeSession();
    ASSERT_TRUE(session->ResumeSession(prefix).ok());
    EXPECT_TRUE(session->has_run());
    EXPECT_EQ(session->Run(), saved_matches);
    EXPECT_EQ(session->function().num_rules(), 2u);
    // Continue editing incrementally and stay oracle-consistent.
    ASSERT_TRUE(
        session->AddRuleText("jaro_winkler(brand, brand) >= 0.97").ok());
    EXPECT_EQ(session->Run(), Oracle(*session));
  }
  std::remove((prefix + ".rules").c_str());
  std::remove((prefix + ".state").c_str());
}

TEST_F(DebugSessionTest, SaveBeforeRunIsError) {
  auto session = MakeSession();
  EXPECT_EQ(session->SaveSession("/tmp/whatever").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DebugSessionTest, ResumeAfterRunIsError) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  session->Run();
  EXPECT_EQ(session->ResumeSession("/tmp/whatever").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DebugSessionTest, ResumeMissingFilesIsIoError) {
  auto session = MakeSession();
  EXPECT_EQ(session->ResumeSession("/no/such/prefix").code(),
            StatusCode::kIoError);
}

TEST_F(DebugSessionTest, CostModelAvailableAfterRun) {
  auto session = MakeSession();
  ASSERT_TRUE(session->AddRuleText("jaccard(title, title) >= 0.6").ok());
  EXPECT_EQ(session->cost_model(), nullptr);
  session->Run();
  EXPECT_NE(session->cost_model(), nullptr);
}

TEST_F(DebugSessionTest, MultiThreadedSessionMatchesSerial) {
  // The same debugging script driven through a serial session and a
  // pooled one (both incremental and batch mode) must produce identical
  // matches at every step.
  const char* kRules[] = {
      "r1: exact_match(modelno, modelno) >= 1 AND "
      "jaccard(title, title) >= 0.4",
      "r2: jaccard(title, title) >= 0.55 AND "
      "exact_match(category, category) >= 1",
      "r3: levenshtein(brand, brand) >= 0.8 AND "
      "numeric(price, price) >= 0.9",
  };
  for (const bool incremental : {true, false}) {
    auto serial = MakeSession(
        DebugSession::Options{.incremental = incremental, .num_threads = 1});
    auto pooled = MakeSession(
        DebugSession::Options{.incremental = incremental, .num_threads = 4});
    EXPECT_EQ(serial->pool(), nullptr);
    ASSERT_NE(pooled->pool(), nullptr);
    EXPECT_EQ(pooled->pool()->num_workers(), 4u);

    ASSERT_TRUE(serial->AddRuleText(kRules[0]).ok());
    ASSERT_TRUE(pooled->AddRuleText(kRules[0]).ok());
    EXPECT_EQ(serial->Run(), pooled->Run()) << "incremental="
                                            << incremental;

    // Post-run edits: the pooled session re-matches affected pairs on
    // its worker pool; results must stay identical.
    for (const char* rule : {kRules[1], kRules[2]}) {
      auto rs = serial->AddRuleText(rule);
      auto rp = pooled->AddRuleText(rule);
      ASSERT_TRUE(rs.ok());
      ASSERT_TRUE(rp.ok());
      EXPECT_EQ(serial->Run(), pooled->Run());
    }
    const RuleId last_serial = serial->function().rules().back().id();
    const RuleId last_pooled = pooled->function().rules().back().id();
    ASSERT_TRUE(serial->RemoveRule(last_serial).ok());
    ASSERT_TRUE(pooled->RemoveRule(last_pooled).ok());
    EXPECT_EQ(serial->Run(), pooled->Run());
    EXPECT_EQ(serial->Run(), Oracle(*serial));
  }
}

}  // namespace
}  // namespace emdbg
