#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/client.h"
#include "src/serve/retrying_client.h"
#include "src/serve/server.h"
#include "src/util/fault_injection.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// Resource-governor serve tests: admission under a memory budget,
/// per-session quotas, idempotency-key replay, the watchdog, governor
/// stats, connect timeouts, and the retrying client's exactly-once
/// behaviour under injected lost acknowledgements. Same in-process
/// real-socket setup as server_test.cc.
class GovernorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratedDataset ds = testing::SmallProducts();
    a_ = std::make_shared<const Table>(std::move(ds.a));
    b_ = std::make_shared<const Table>(std::move(ds.b));
    pairs_ = std::make_shared<const CandidateSet>(std::move(ds.candidates));
  }

  GovernorTest()
      : dir_(::testing::TempDir() + "/emdbg_governor_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
    FaultInjection::DisarmAll();
  }

  ~GovernorTest() override {
    if (server_) server_->Shutdown();
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  Server::Options BaseOptions() {
    Server::Options o;
    o.num_workers = 2;
    o.durability_root = dir_;
    return o;
  }

  void StartServer(const Server::Options& options) {
    server_ = std::make_unique<Server>(a_, b_, pairs_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  ServeClient Connect() {
    Result<ServeClient> c = ServeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().message();
    return c.ok() ? std::move(*c) : ServeClient();
  }

  /// Pulls "<key>=<N>" out of a stats/response body (-1 when absent).
  static long StatValue(const std::string& body, const std::string& key) {
    const size_t pos = body.find(key + "=");
    if (pos == std::string::npos) return -1;
    return std::atol(body.c_str() + pos + key.size() + 1);
  }

  static std::shared_ptr<const Table> a_;
  static std::shared_ptr<const Table> b_;
  static std::shared_ptr<const CandidateSet> pairs_;

  std::string dir_;
  std::unique_ptr<Server> server_;
};

std::shared_ptr<const Table> GovernorTest::a_;
std::shared_ptr<const Table> GovernorTest::b_;
std::shared_ptr<const CandidateSet> GovernorTest::pairs_;

// ---------------------------------------------------------------------------
// Satellite: Connect with a timeout against a socket that never accepts.
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, ConnectTimesOutAgainstANonAcceptingSocket) {
  // A listener with a minimal backlog that never calls accept(): once the
  // accept queue is full the kernel stops completing handshakes, and a
  // blocking connect would hang on SYN retransmits. The bounded Connect
  // must give up with DeadlineExceeded instead.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const uint16_t port = ntohs(addr.sin_port);

  // Fill the accept queue with throwaway connections until a bounded
  // connect starts timing out.
  std::vector<ServeClient> filler;
  bool timed_out = false;
  Status last = Status::Ok();
  for (int i = 0; i < 64 && !timed_out; ++i) {
    Result<ServeClient> c = ServeClient::Connect("127.0.0.1", port, 250);
    if (c.ok()) {
      filler.push_back(std::move(*c));
      continue;
    }
    last = c.status();
    timed_out = last.code() == StatusCode::kDeadlineExceeded;
  }
  ::close(lfd);
  if (!timed_out && last.ok()) {
    // Some kernels keep completing handshakes far past the backlog; the
    // timeout path is then unreachable from userspace.
    GTEST_SKIP() << "kernel kept accepting past the backlog";
  }
  EXPECT_TRUE(timed_out) << last.message();
  EXPECT_NE(last.message().find("timed out"), std::string::npos)
      << last.message();
}

TEST_F(GovernorTest, BoundedConnectStillReachesALiveServer) {
  StartServer(BaseOptions());
  Result<ServeClient> c =
      ServeClient::Connect("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(c.ok()) << c.status().message();
  Result<std::string> pong = c->Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "pong");
}

// ---------------------------------------------------------------------------
// Idempotency keys.
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, IdempotentRetryReplaysInsteadOfReapplying) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());

  const std::string cmd = "idem=k1 add_rule r1: jaccard(title, title) >= 0.5";
  Result<std::string> first = c.Call(cmd);
  ASSERT_TRUE(first.ok()) << first.status().message();
  // A client that never saw the ack re-sends the identical frame; the
  // server must answer from the window, not run the edit again.
  Result<std::string> second = c.Call(cmd);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(*first, *second);

  Result<std::string> rules = c.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos) << *rules;

  // A different key is a different request.
  ASSERT_TRUE(
      c.Call("idem=k2 add_rule r2: jaccard(brand, brand) >= 0.4").ok());
  rules = c.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=2"), std::string::npos) << *rules;

  Result<std::string> stats = c.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatValue(*stats, "replays"), 1) << *stats;
}

TEST_F(GovernorTest, ErrorsAreNotRecordedInTheIdempotencyWindow) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  // The first attempt fails (bad DSL reference); a retry under the same
  // key must re-execute — replaying a stored error would wedge a client
  // retrying a transient failure forever.
  Result<std::string> bad = c.Call("idem=k1 remove_rule 7");
  EXPECT_FALSE(bad.ok());
  Result<std::string> again = c.Call("idem=k1 remove_rule 7");
  EXPECT_FALSE(again.ok());
  Result<std::string> stats = c.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatValue(*stats, "replays"), 0) << *stats;
}

TEST_F(GovernorTest, MalformedIdemKeyIsRejectedUpFront) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  Result<std::string> r = c.Call("idem= add_rule r1: jaccard(title, title) >= 0.5");
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  r = c.Call("idem=" + std::string(65, 'x') + " rules");
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Budget / quota admission and denial.
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, HopelessBudgetDeniesRunsWithARetryHint) {
  Server::Options o = BaseOptions();
  // The run's memo matrix alone needs pairs × features × 4 bytes (3600
  // here); cache layers degrade gracefully below that, but the memo
  // reservation is load-bearing and must surface as a denial.
  o.mem_budget_bytes = 2048;
  o.retry_after_ms = 75;
  StartServer(o);
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  Result<std::string> run = c.Call("run");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().message();
  // The shed response carries the server's configured backoff hint.
  EXPECT_NE(run.status().message().find("retry_after_ms=75"),
            std::string::npos)
      << run.status().message();

  Result<std::string> stats = c.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatValue(*stats, "mem_limit"), 2048) << *stats;
  EXPECT_GE(StatValue(*stats, "mem_denials"), 1) << *stats;

  // The denial committed nothing: the session still edits fine.
  EXPECT_TRUE(c.Call("add_rule r2: jaccard(brand, brand) >= 0.9").ok());
}

TEST_F(GovernorTest, SessionQuotaDenialNamesTheSessionAndSparesNeighbours) {
  Server::Options o = BaseOptions();
  o.session_quota_bytes = 2048;  // unlimited root, starved children
  StartServer(o);
  ServeClient c1 = Connect();
  ASSERT_TRUE(c1.Call("open").ok());
  ASSERT_TRUE(c1.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  Result<std::string> run = c1.Call("run");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  // The message points at the session's own quota, not the server budget.
  EXPECT_NE(run.status().message().find("session/"), std::string::npos)
      << run.status().message();

  // A neighbour is wholly unaffected by session 1 hitting its quota.
  ServeClient c2 = Connect();
  ASSERT_TRUE(c2.Call("open").ok());
  ASSERT_TRUE(c2.Call("add_rule q1: jaccard(title, title) >= 0.9").ok());
  Result<std::string> rules = c2.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Governor stats & watchdog.
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, StatsExposeGovernorByteCounts) {
  Server::Options o = BaseOptions();
  o.mem_budget_bytes = 256u << 20;
  StartServer(o);
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  ASSERT_TRUE(c.Call("run").ok());
  // The per-consumer byte counts only cover idle sessions; the run's
  // worker clears the running flag just after acknowledging, so poll
  // briefly.
  long memo = -1;
  std::string body;
  for (int i = 0; i < 100 && memo <= 0; ++i) {
    Result<std::string> stats = c.Call("stats");
    ASSERT_TRUE(stats.ok());
    body = *stats;
    memo = StatValue(body, "memo_bytes");
    if (memo <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(memo, 0) << body;
  EXPECT_GT(StatValue(body, "mem_used"), 0) << body;
  EXPECT_EQ(StatValue(body, "mem_limit"), long{256} << 20) << body;
  EXPECT_GE(StatValue(body, "interner_bytes"), 0) << body;
  EXPECT_GE(StatValue(body, "id_bytes"), 0) << body;
  // Releasing the session drains its billing from the shared budget.
  ASSERT_TRUE(c.Call("close").ok());
  long used = -1;
  for (int i = 0; i < 100 && used != 0; ++i) {
    Result<std::string> stats = c.Call("stats");
    ASSERT_TRUE(stats.ok());
    body = *stats;
    used = StatValue(body, "mem_used");
    if (used != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(used, 0) << body;
}

TEST_F(GovernorTest, WatchdogFlagsTasksStuckPastTheThreshold) {
  Server::Options o = BaseOptions();
  o.watchdog_interval_ms = 5;
  o.stuck_task_ms = 1;
  StartServer(o);
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  // serve.slow_task stalls the worker inside ExecuteRequest long enough
  // for several watchdog sweeps to see it running.
  FaultInjection::Plan plan;
  plan.every = 1;
  FaultInjection::Arm("serve.slow_task", plan);
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  FaultInjection::DisarmAll();
  Result<std::string> stats = c.Call("stats");
  ASSERT_TRUE(stats.ok());
  // Flagged once per stuck task, not once per sweep.
  EXPECT_EQ(StatValue(*stats, "stuck"), 1) << *stats;
}

// ---------------------------------------------------------------------------
// RetryingClient: exactly-once under lost acknowledgements.
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, RetryingClientReplaysLostAcksWithoutReapplying) {
  StartServer(BaseOptions());
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 10;
  RetryingClient rc("127.0.0.1", server_->port(), policy);
  ASSERT_TRUE(rc.Open(false).ok());
  ASSERT_FALSE(rc.token().empty());

  // Eat the next acknowledgement client-side: the server applied the
  // edit and answered, but the client never saw it.
  FaultInjection::Plan plan;
  plan.every = 0;  // exactly once
  FaultInjection::Arm("serve.retry", plan);
  Result<std::string> add =
      rc.Call("add_rule r1: jaccard(title, title) >= 0.5");
  FaultInjection::DisarmAll();
  ASSERT_TRUE(add.ok()) << add.status().message();
  EXPECT_GE(rc.retries(), 1u);

  Result<std::string> rules = rc.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos) << *rules;

  Result<std::string> stats = rc.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(StatValue(*stats, "replays"), 1) << *stats;
}

TEST_F(GovernorTest, RetryingClientBacksOffThroughSheddingAndSucceeds) {
  Server::Options o = BaseOptions();
  o.retry_after_ms = 1;
  StartServer(o);
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  policy.max_attempts = 8;
  RetryingClient rc("127.0.0.1", server_->port(), policy);
  // The first few session allocations fail with an injected shed; the
  // retry loop must ride through the ResourceExhausted responses.
  FaultInjection::Plan plan;
  plan.every = 1;
  plan.max_failures = 3;
  FaultInjection::Arm("serve.session", plan);
  Status open = rc.Open(false);
  FaultInjection::DisarmAll();
  ASSERT_TRUE(open.ok()) << open.message();
  EXPECT_GE(rc.retries(), 3u);
  ASSERT_TRUE(rc.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  Result<std::string> rules = rc.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos);
}

TEST_F(GovernorTest, RetryingClientResumesADurableSessionAfterACrash) {
  Server::Options o = BaseOptions();
  StartServer(o);
  const uint16_t port = server_->port();
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.max_attempts = 8;
  auto rc = std::make_unique<RetryingClient>("127.0.0.1", port, policy);
  ASSERT_TRUE(rc->Open(true).ok());
  const std::string token = rc->token();
  ASSERT_TRUE(rc->Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  // The first run snapshots the session and switches the journal on;
  // only acknowledged state after this point survives a crash.
  ASSERT_TRUE(rc->Call("run").ok());

  // kill -9 equivalent: acknowledged edits are on disk, the live session
  // is gone.
  server_->Abort();
  server_.reset();
  Server::Options o2 = BaseOptions();
  o2.port = port;
  server_ = std::make_unique<Server>(a_, b_, pairs_, o2);
  Status started = Status::Ok();
  for (int i = 0; i < 50; ++i) {
    started = server_->Start();
    if (started.ok()) break;
    // The old listener may linger in TIME_WAIT briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_ = std::make_unique<Server>(a_, b_, pairs_, o2);
  }
  ASSERT_TRUE(started.ok()) << started.message();

  // The next call reconnects, finds the session missing, and resumes it
  // from the journal without the caller doing anything.
  Result<std::string> rules = rc->Call("rules");
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  EXPECT_NE(rules->find("rules=1"), std::string::npos) << *rules;
  EXPECT_EQ(rc->token(), token);
}

TEST_F(GovernorTest, RetryingClientAppliesAnEditOnceAfterAFailedJournalFsync) {
  StartServer(BaseOptions());
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.max_attempts = 8;
  RetryingClient rc("127.0.0.1", server_->port(), policy);
  ASSERT_TRUE(rc.Open(true).ok());
  ASSERT_TRUE(rc.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  ASSERT_TRUE(rc.Call("run").ok());

  // The next journal fsync fails after the record reached the file. The
  // server answers IoError and degrades the session; the client resumes
  // it from the journal and sends the edit again. The journal must not
  // still hold the failed record, or the edit applies twice.
  FaultInjection::Arm("journal.fsync", FaultInjection::Plan{});
  Result<std::string> add =
      rc.Call("add_rule r2: jaccard(brand, brand) >= 0.7");
  EXPECT_EQ(FaultInjection::Failures("journal.fsync"), 1u);
  FaultInjection::DisarmAll();
  ASSERT_TRUE(add.ok()) << add.status().message();
  EXPECT_GE(rc.retries(), 1u);

  Result<std::string> rules = rc.Call("rules");
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  EXPECT_NE(rules->find("rules=2"), std::string::npos) << *rules;
  const size_t r2 = rules->find("r2:");
  ASSERT_NE(r2, std::string::npos) << *rules;
  EXPECT_EQ(rules->find("r2:", r2 + 1), std::string::npos) << *rules;
}

}  // namespace
}  // namespace emdbg
