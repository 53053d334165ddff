#ifndef EMDBG_SERVE_SERVER_H_
#define EMDBG_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/debug_session.h"
#include "src/serve/wire.h"
#include "src/util/cancellation.h"
#include "src/util/memory_budget.h"

namespace emdbg {

/// Multi-tenant debug service: many concurrent DebugSessions over one
/// shared immutable corpus, behind the length-prefixed TCP protocol of
/// wire.h. Robustness properties (see DESIGN.md, "Service architecture &
/// failure model"):
///
///  * Admission control: the session table, each session's request
///    queue, and the connection count are bounded; past a bound the
///    server sheds with an explicit ResourceExhausted error instead of
///    queueing unboundedly.
///  * Per-session fairness: one poll thread parses frames and enqueues;
///    worker threads drain sessions round-robin, one request at a time,
///    so a heavy session cannot starve light ones.
///  * Deadlines & cancellation: every request carries a deadline
///    (default_deadline_ms, or the explicit argument of `run`); a request
///    that expires while queued is answered DeadlineExceeded without
///    running, and a running match stops via RunControl. A dropped
///    connection cancels its in-flight request and drops its queued ones.
///  * Durability: `open durable` sessions journal every acknowledged edit
///    (fsync before the ok response) under durability_root/<token>;
///    `resume <token>` rebuilds one after a disconnect, a server crash,
///    or kill -9. A durable session whose journal write fails is
///    *degraded* — it refuses further work until resumed from its last
///    durable state, so the in-memory and on-disk states can never
///    silently diverge.
///  * Graceful shutdown: Shutdown() refuses new connections and new
///    requests, drains everything already queued, checkpoints every
///    durable session, and joins all threads. Abort() simulates a crash
///    (no drain, no checkpoints) for recovery tests.
///
/// Protocol (one text line per frame; responses "ok ..." / "err <Code>
/// <message>"):
///
///   ping | stats
///   open [durable] [token=T]      -> ok token=T
///   attach <token>                -> ok token=T
///   resume <token>                -> ok token=T matches=N   (durable)
///   add_rule <dsl>                -> ok rule=<name> [matches=N]
///   remove_rule <rulepos>         -> ok [matches=N]
///   add_pred <rulepos> <dsl>      -> ok [matches=N]
///   remove_pred <rulepos> <predpos>
///   set_threshold <rulepos> <predpos> <t>
///   undo
///   run [deadline_ms]             -> ok matches=N pairs=M
///                                    [partial=1 reason=<Code>]
///   rules | digest | checkpoint | close
class Server {
 public:
  struct Options {
    /// 0 = kernel-assigned; read the bound port from port().
    uint16_t port = 0;
    /// Worker threads executing session requests. Cross-session
    /// parallelism: each worker runs one session's request at a time.
    size_t num_workers = 2;
    /// Bounds enforced by admission control.
    size_t max_sessions = 64;
    size_t max_queue_per_session = 16;
    size_t max_connections = 128;
    size_t max_frame_bytes = kMaxFrameBytes;
    /// Deadline stamped on every request at admission (0 = none). `run`
    /// may override with its explicit argument.
    double default_deadline_ms = 0;
    /// Threads per session's own matching pool (1 = serial; the server's
    /// concurrency normally comes from num_workers across sessions).
    size_t session_threads = 1;
    /// Durable sessions checkpoint every N journaled edits.
    size_t checkpoint_every = 16;
    /// Root directory for per-session durability ("<root>/<token>").
    /// Empty = `open durable` / `resume` are refused.
    std::string durability_root;
    /// Process-wide memory budget across every session's memo, token/id
    /// caches and interner arenas (0 = unlimited, pure accounting). Under
    /// pressure the server reclaims idle sessions' caches first; a
    /// reservation that still cannot fit surfaces as ResourceExhausted
    /// with a retry_after_ms hint instead of an OOM abort.
    size_t mem_budget_bytes = 0;
    /// Per-session quota, a child of the server budget (0 = none). A
    /// session over its quota degrades its own caches / denies its own
    /// runs without touching its neighbours.
    size_t session_quota_bytes = 0;
    /// Hint appended to ResourceExhausted responses
    /// ("... retry_after_ms=N"); RetryingClient honours it.
    double retry_after_ms = 50;
    /// Acknowledged responses remembered per session for idempotency-key
    /// dedup ("idem=K <cmd>"): a redelivered key replays the stored
    /// response instead of re-applying the edit. 0 disables dedup.
    size_t idempotency_window = 64;
    /// Watchdog sweep period (0 = disabled): flags requests running
    /// longer than stuck_task_ms in stats (tasks_stuck).
    double watchdog_interval_ms = 0;
    double stuck_task_ms = 5000;
  };

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_shed = 0;
    uint64_t sessions_opened = 0;
    uint64_t sessions_resumed = 0;
    uint64_t sessions_degraded = 0;
    uint64_t requests_executed = 0;
    uint64_t requests_shed = 0;
    uint64_t requests_expired = 0;
    uint64_t requests_dropped = 0;
    size_t live_sessions = 0;
    size_t live_connections = 0;
    // ---- Resource governor (see Options::mem_budget_bytes). ----
    uint64_t mem_denials = 0;
    uint64_t mem_reclaim_runs = 0;
    uint64_t mem_reclaimed_bytes = 0;
    uint64_t idem_replays = 0;
    uint64_t tasks_stuck = 0;
    size_t mem_used_bytes = 0;
    size_t mem_limit_bytes = 0;
    /// Per-consumer byte counts summed over idle sessions (a running
    /// session's caches are in flux and are skipped).
    size_t memo_bytes = 0;
    size_t id_cache_bytes = 0;
    size_t interner_bytes = 0;
  };

  /// The corpus is shared read-only by every session (see DebugSession's
  /// shared-corpus constructor); nothing here copies it.
  Server(std::shared_ptr<const Table> a, std::shared_ptr<const Table> b,
         std::shared_ptr<const CandidateSet> pairs, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the poll thread + workers.
  Status Start();

  /// The bound port (valid after Start; useful with Options::port == 0).
  uint16_t port() const { return bound_port_; }

  /// Graceful drain: refuse new connections/requests, finish queued work,
  /// checkpoint durable sessions, join threads. Idempotent.
  void Shutdown();

  /// Simulated crash for recovery tests: stop immediately — cancel
  /// running requests, drop queues, no checkpoints. Acknowledged edits
  /// are already fsync'd, so disk is exactly what kill -9 would leave.
  void Abort();

  Stats stats() const;

 private:
  struct ConnShared;
  struct Connection;
  struct Request;
  struct SessionEntry;

  void PollLoop();
  void WorkerLoop();
  void HandleFrame(Connection& conn, std::string_view payload);
  /// Inline (poll-thread) handlers; mu_ held by caller where noted.
  void HandleOpen(Connection& conn, std::string_view rest);
  void HandleAttach(Connection& conn, std::string_view rest);
  void HandleResume(Connection& conn, std::string_view rest);
  /// Worker-side execution of one session request. Returns true when the
  /// session asked to close; in that case the response is handed back via
  /// `deferred_resp` instead of being written, so the caller can erase
  /// the entry under mu_ *before* acknowledging — a client that sees
  /// "ok closed" must be able to open into the freed slot immediately.
  /// `executed_resp` receives the response that was written (empty when
  /// the request was dropped/expired), so the caller can record it in the
  /// session's idempotency window.
  bool ExecuteRequest(SessionEntry& entry, Request& req,
                      std::string* deferred_resp,
                      std::string* executed_resp);
  std::string ExecuteSessionCommand(SessionEntry& entry, Request& req,
                                    bool* close_session);
  /// Journal-failure path: drop the live session, keep the token + disk.
  void DegradeSession(SessionEntry& entry, const Status& why);

  void WriteResponse(const std::shared_ptr<ConnShared>& conn,
                     std::string_view payload);
  void ScheduleLocked(const std::string& token, SessionEntry& entry);
  void DropConnection(uint64_t conn_id);
  void JoinThreads();

  /// ResourceExhausted response with the retry_after_ms hint appended.
  std::string ErrShed(const std::string& msg) const;
  /// Root-budget reclaim hook: drops idle sessions' id caches. Uses
  /// try_lock on mu_ — a reclaimer must never block on the server lock —
  /// and skips running sessions, whose caches are in active use.
  size_t ReclaimSessionCaches(size_t want);
  /// Periodic sweep flagging requests stuck past stuck_task_ms.
  void WatchdogLoop();
  /// Formats the `stats` response / fills the governor fields of Stats.
  void FillGovernorStatsLocked(Stats& s) const;

  std::shared_ptr<const Table> a_;
  std::shared_ptr<const Table> b_;
  std::shared_ptr<const CandidateSet> pairs_;
  Options options_;

  /// Root memory budget (null when unconfigured). Declared before
  /// sessions_ so it outlives every per-session child quota. Reclaimer
  /// handles are removed only after all threads joined (no Reserve can
  /// be in flight then).
  std::unique_ptr<MemoryBudget> budget_;
  uint64_t id_reclaimer_ = 0;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: wakes the poll loop
  uint16_t bound_port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here
  std::condition_variable drain_cv_;  // Shutdown waits here
  enum class State { kIdle, kRunning, kDraining, kStopped };
  State state_ = State::kIdle;
  bool workers_exit_ = false;
  bool abort_ = false;
  size_t running_requests_ = 0;
  size_t queued_requests_ = 0;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::string, std::unique_ptr<SessionEntry>> sessions_;
  std::deque<std::string> ready_;  // round-robin dispatch order
  Stats stats_;
  /// Connection ids double as poll-loop owner tags; 0 and 1 are reserved
  /// for the wake pipe and the listener.
  uint64_t next_conn_id_ = 2;
  uint64_t next_token_ = 1;
  uint64_t boot_id_ = 0;

  std::thread poll_thread_;
  std::vector<std::thread> workers_;
  std::thread watchdog_thread_;
  std::condition_variable watchdog_cv_;
  bool watchdog_exit_ = false;
};

}  // namespace emdbg

#endif  // EMDBG_SERVE_SERVER_H_
