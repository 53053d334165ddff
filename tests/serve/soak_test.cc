#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/session_digest.h"
#include "src/util/fault_injection.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// In-process soak: N concurrent durable sessions hammer one server while
/// deterministic faults fail journal fsyncs, drop connections mid-read,
/// and stall workers; the server is crashed (Abort == kill -9: no drain,
/// no checkpoints) and restarted between rounds.
///
/// The invariant under test is the ISSUE's acceptance criterion: ZERO
/// lost acknowledged edits. Each client thread tracks exactly which of
/// its edits were acknowledged; after every fault and every crash the
/// recovered session's digest must be bit-identical to a fault-free
/// serial replay of that edit list on a fresh local session over the
/// same shared corpus.
///
/// A connection that dies mid-call makes one edit *indeterminate* (the
/// server may have applied and journaled it before the client saw an
/// error). A journal-fsync fault does not: the journal truncates the
/// failed record away, so that edit did not commit (unless the rollback
/// fails too). The client resolves any ambiguity the only honest way:
/// recover, then compare the server's digest against BOTH candidates —
/// replay(acked) and replay(acked + the in-doubt edit) — and adopt
/// whichever matches. Matching neither is a lost or invented edit and
/// fails the test.
class SoakTest : public ::testing::Test {
 protected:
  static constexpr int kSessions = 8;       // ISSUE floor: N >= 8
  static constexpr int kEditsPerCycle = 12;
  static constexpr int kCycles = 2;
  static constexpr char kBaseRule[] = "base: jaccard(title, title) >= 0.55";

  static void SetUpTestSuite() {
    GeneratedDataset ds = testing::SmallProducts();
    a_ = std::make_shared<const Table>(std::move(ds.a));
    b_ = std::make_shared<const Table>(std::move(ds.b));
    pairs_ = std::make_shared<const CandidateSet>(std::move(ds.candidates));
  }

  // Per-test-name root: ctest runs each test as its own process, possibly
  // in parallel, and a shared directory would let one test's cleanup
  // delete another's live durable state.
  SoakTest()
      : dir_(::testing::TempDir() + "/emdbg_soak_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
    FaultInjection::DisarmAll();
  }

  ~SoakTest() override {
    if (server_) server_->Shutdown();
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  void StartServer() {
    Server::Options o;
    o.num_workers = 4;
    o.durability_root = dir_;
    o.max_sessions = kSessions * 2;
    server_ = std::make_unique<Server>(a_, b_, pairs_, o);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The deterministic per-session edit script. Values are distinct per
  /// step so every command string is unique within its session.
  static std::string EditCommand(int session, int step) {
    const double v =
        0.30 + 0.005 * ((session * 131 + step * 53) % 90);
    if (step % 3 == 2) {
      return StrFormat("add_rule a%d_%d: jaccard(brand, brand) >= %.4f",
                       session, step, v);
    }
    return StrFormat("set_threshold 0 0 %.4f", v);
  }

  /// Fault-free serial replay of (base rule + edits) on a fresh local
  /// session over the very same shared corpus — the ground truth the
  /// recovered server-side session must match bit for bit.
  static std::string ReplayDigest(const std::vector<std::string>& edits) {
    DebugSession s(a_, b_, pairs_, DebugSession::Options{});
    EXPECT_TRUE(s.AddRuleText(kBaseRule).ok());
    for (const std::string& cmd : edits) {
      if (StartsWith(cmd, "add_rule ")) {
        EXPECT_TRUE(s.AddRuleText(cmd.substr(9)).ok()) << cmd;
      } else {
        // "set_threshold 0 0 <v>": same parse the server applies.
        const double v = std::stod(cmd.substr(cmd.rfind(' ') + 1));
        const Rule& r0 = s.function().rule(0);
        EXPECT_TRUE(s.SetThreshold(r0.id(), r0.predicate(0).id, v).ok())
            << cmd;
      }
    }
    return StrFormat("%08x", SessionStateDigest(s));
  }

  static std::string ExtractDigest(const std::string& resp) {
    const size_t pos = resp.find("digest=");
    return pos == std::string::npos ? std::string()
                                    : resp.substr(pos + 7, 8);
  }

  /// Retry budget: generous wall-clock deadlines, not iteration counts —
  /// under TSan (10-20x slower) plus ctest -j CPU contention a resume can
  /// legitimately take seconds, and a count-based loop with fast continue
  /// paths burns its budget spinning.
  static std::chrono::steady_clock::time_point RetryDeadline() {
    return std::chrono::steady_clock::now() + std::chrono::seconds(60);
  }

  bool EnsureConnected(ServeClient& client) {
    if (client.connected()) return true;
    const auto deadline = RetryDeadline();
    while (std::chrono::steady_clock::now() < deadline) {
      Result<ServeClient> c =
          ServeClient::Connect("127.0.0.1", server_->port());
      if (c.ok()) {
        client = std::move(*c);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "could not reconnect";
    return false;
  }

  /// Re-establishes `token` (attach if live, resume if degraded or gone)
  /// and verifies the server digest against the replay of `applied` —
  /// plus, when `pending` is set, the replay including the in-doubt edit,
  /// adopting it into `applied` if that is the state the journal holds.
  bool Resync(ServeClient& client, const std::string& token,
              std::vector<std::string>& applied, const std::string* pending) {
    const auto deadline = RetryDeadline();
    for (bool first = true; std::chrono::steady_clock::now() < deadline;
         first = false) {
      if (!first) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!EnsureConnected(client)) return false;

      // attach first: cheap, and tells us whether the session is live.
      Result<std::string> r = client.Call("attach " + token);
      if (r.ok() && r->find("degraded=1") == std::string::npos) {
        // live and healthy
      } else {
        const StatusCode code = r.status().code();
        if (!r.ok() && code == StatusCode::kIoError) {
          client.Close();
          continue;
        }
        if (!r.ok() && code != StatusCode::kNotFound &&
            code != StatusCode::kFailedPrecondition) {
          ADD_FAILURE() << token << " attach: " << r.status().message();
          return false;
        }
        Result<std::string> res = client.Call("resume " + token);
        if (!res.ok()) {
          const StatusCode rc = res.status().code();
          if (rc == StatusCode::kIoError) {
            client.Close();
            continue;
          }
          // busy / attached-elsewhere races resolve with a short wait
          if (rc == StatusCode::kFailedPrecondition ||
              rc == StatusCode::kResourceExhausted) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
          }
          ADD_FAILURE() << token << " resume: " << res.status().message();
          return false;
        }
      }

      Result<std::string> d = client.Call("digest");
      if (!d.ok()) {
        if (d.status().code() == StatusCode::kIoError) client.Close();
        continue;
      }
      const std::string got = ExtractDigest(*d);
      if (got == ReplayDigest(applied)) return true;
      if (pending != nullptr) {
        std::vector<std::string> with = applied;
        with.push_back(*pending);
        if (got == ReplayDigest(with)) {
          applied.push_back(*pending);
          return true;
        }
      }
      ADD_FAILURE()
          << token << ": recovered digest " << got
          << " matches no legal replay of the acknowledged edits ("
          << applied.size() << " acked"
          << (pending ? ", 1 in doubt" : "") << ")";
      return false;
    }
    ADD_FAILURE() << token << ": resync did not converge";
    return false;
  }

  /// First-time setup of a durable session: open (or re-attach), install
  /// the base rule, complete the first run so durability engages.
  bool OpenSession(ServeClient& client, const std::string& token) {
    const auto deadline = RetryDeadline();
    for (bool first = true; std::chrono::steady_clock::now() < deadline;
         first = false) {
      if (!first) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!EnsureConnected(client)) return false;
      Result<std::string> r = client.Call("attach " + token);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kIoError) {
          client.Close();
          continue;
        }
        r = client.Call("open durable token=" + token);
        if (!r.ok()) {
          if (r.status().code() == StatusCode::kIoError) client.Close();
          continue;  // AlreadyExists loops back into attach
        }
      }
      Result<std::string> rules = client.Call("rules");
      if (!rules.ok()) {
        if (rules.status().code() == StatusCode::kIoError) client.Close();
        continue;
      }
      if (rules->find("rules=0") != std::string::npos) {
        Result<std::string> add =
            client.Call(std::string("add_rule ") + kBaseRule);
        if (!add.ok()) {
          // Indeterminate or refused: loop re-reads `rules` and only
          // re-adds if the rule really is absent.
          if (add.status().code() == StatusCode::kIoError) client.Close();
          continue;
        }
      }
      Result<std::string> run = client.Call("run");
      if (run.ok()) return true;
      if (run.status().code() == StatusCode::kIoError) client.Close();
      // run is idempotent: any failure just retries
    }
    ADD_FAILURE() << token << ": open did not converge";
    return false;
  }

  /// One edit, driven to a *settled* outcome: acknowledged (and recorded
  /// in `applied`) or proven never-applied. Returns false only on an
  /// invariant violation.
  bool RobustEdit(ServeClient& client, const std::string& token,
                  std::vector<std::string>& applied,
                  const std::string& cmd) {
    const auto deadline = RetryDeadline();
    for (bool first = true; std::chrono::steady_clock::now() < deadline;
         first = false) {
      if (!first) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!EnsureConnected(client)) return false;
      Result<std::string> r = client.Call(cmd);
      if (r.ok()) {
        applied.push_back(cmd);
        return true;
      }
      switch (r.status().code()) {
        case StatusCode::kIoError: {
          // Journal failure (session degraded; the edit was rolled back
          // unless the rollback failed too) or the connection died
          // mid-call (edit in doubt). Resolve via digest.
          client.Close();
          if (!Resync(client, token, applied, &cmd)) return false;
          if (!applied.empty() && applied.back() == cmd) return true;
          break;  // proven not applied: retry
        }
        case StatusCode::kFailedPrecondition: {
          // Degraded by an earlier failure, or attach lost in a race.
          if (!Resync(client, token, applied, nullptr)) return false;
          break;
        }
        case StatusCode::kResourceExhausted:
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          break;
        default:
          ADD_FAILURE() << token << ": " << cmd << " -> "
                        << r.status().message();
          return false;
      }
    }
    ADD_FAILURE() << token << ": edit did not settle: " << cmd;
    return false;
  }

  static std::shared_ptr<const Table> a_;
  static std::shared_ptr<const Table> b_;
  static std::shared_ptr<const CandidateSet> pairs_;

  std::string dir_;
  std::unique_ptr<Server> server_;
};

std::shared_ptr<const Table> SoakTest::a_;
std::shared_ptr<const Table> SoakTest::b_;
std::shared_ptr<const CandidateSet> SoakTest::pairs_;
constexpr char SoakTest::kBaseRule[];

TEST_F(SoakTest, NoAcknowledgedEditLostUnderFaultsAndCrashes) {
  // Deterministic hostile environment: every 7th journal fsync fails,
  // ~3% of connection reads drop the connection (fixed seed), every 9th
  // request stalls its worker.
  FaultInjection::Plan fsync;
  fsync.every = 7;
  FaultInjection::Arm("journal.fsync", fsync);
  FaultInjection::Plan drop;
  drop.probability = 0.03;
  drop.seed = 11;
  FaultInjection::Arm("serve.read", drop);
  FaultInjection::Plan slow;
  slow.every = 9;
  FaultInjection::Arm("serve.slow_task", slow);

  StartServer();
  std::vector<std::vector<std::string>> applied(kSessions);

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<std::thread> threads;
    std::atomic<int> failed{0};
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        const std::string token = "soak" + std::to_string(i);
        ServeClient client;
        const bool up = cycle == 0
                            ? OpenSession(client, token)
                            : Resync(client, token, applied[i], nullptr);
        if (!up) {
          failed.fetch_add(1);
          return;
        }
        for (int k = 0; k < kEditsPerCycle; ++k) {
          const std::string cmd =
              EditCommand(i, cycle * kEditsPerCycle + k);
          if (!RobustEdit(client, token, applied[i], cmd)) {
            failed.fetch_add(1);
            return;
          }
        }
        client.Close();
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failed.load(), 0) << "cycle " << cycle;

    // kill -9: no drain, no checkpoints. Acked edits are fsync'd.
    server_->Abort();
    server_.reset();
    StartServer();
  }

  // Final reckoning: every session recovered from the crash must be
  // bit-identical to the fault-free serial replay of its acked edits.
  for (int i = 0; i < kSessions; ++i) {
    const std::string token = "soak" + std::to_string(i);
    ServeClient client;
    EXPECT_TRUE(Resync(client, token, applied[i], nullptr)) << token;
    EXPECT_GT(applied[i].size(), 0u) << token << " made no progress";
  }

  // The hostile environment actually fired: otherwise this proves little.
  EXPECT_GT(FaultInjection::Failures("journal.fsync"), 0u);
  const Server::Stats stats = server_->stats();
  EXPECT_GT(stats.sessions_resumed, 0u);
  server_->Shutdown();
}

TEST_F(SoakTest, OverloadShedsButNeverWedges) {
  // Admission-control soak: more clients than the session table allows.
  // Every open must get a definite answer — a token or an explicit
  // ResourceExhausted — and the survivors must stay fully functional.
  Server::Options tight;
  tight.num_workers = 2;
  tight.max_sessions = 3;
  tight.durability_root = dir_;
  server_ = std::make_unique<Server>(a_, b_, pairs_, tight);
  ASSERT_TRUE(server_->Start().ok());

  constexpr int kClients = 10;
  std::atomic<int> opened{0};
  std::atomic<int> shed{0};
  std::atomic<int> odd{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Result<ServeClient> c =
          ServeClient::Connect("127.0.0.1", server_->port());
      if (!c.ok()) {
        odd.fetch_add(1);
        return;
      }
      Result<std::string> r =
          c->Call("open token=ov" + std::to_string(i));
      if (r.ok()) {
        opened.fetch_add(1);
        // An admitted session must still do real work under overload.
        if (!c->Call("add_rule r: jaccard(title, title) >= 0.5").ok() ||
            !c->Call("run").ok()) {
          odd.fetch_add(1);
        }
      } else if (r.status().code() == StatusCode::kResourceExhausted) {
        shed.fetch_add(1);
      } else {
        odd.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(odd.load(), 0);
  EXPECT_EQ(opened.load(), 3) << "exactly max_sessions admitted";
  EXPECT_EQ(shed.load(), kClients - 3);
  EXPECT_GE(server_->stats().requests_shed, static_cast<uint64_t>(7));
  // And the server shuts down cleanly with sessions still open.
  server_->Shutdown();
}

}  // namespace
}  // namespace emdbg
