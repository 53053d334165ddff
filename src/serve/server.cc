#include "src/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "src/serve/session_digest.h"
#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

std::string Err(const Status& s) {
  return StrFormat("err %s %s", StatusCodeName(s.code()),
                   s.message().c_str());
}

std::string Err(StatusCode code, const std::string& msg) {
  return StrFormat("err %s %s", StatusCodeName(code), msg.c_str());
}

/// Splits the leading space-delimited token off `rest`.
std::string_view TakeToken(std::string_view& rest) {
  rest = TrimAscii(rest);
  const size_t sp = rest.find(' ');
  std::string_view tok = sp == std::string_view::npos ? rest : rest.substr(0, sp);
  rest = sp == std::string_view::npos ? std::string_view()
                                      : TrimAscii(rest.substr(sp + 1));
  return tok;
}

bool TakeIndex(std::string_view& rest, size_t* out) {
  int64_t v = 0;
  if (!ParseInt64(TakeToken(rest), &v) || v < 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// Session tokens become directory names under durability_root, so the
/// grammar is deliberately restrictive.
bool ValidToken(std::string_view token) {
  if (token.empty() || token.size() > 64) return false;
  for (char c : token) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

/// Shared between the poll thread (reads) and workers (response writes).
/// The fd closes when the last reference drops, so a worker finishing a
/// request for an already-dropped connection can never write into a
/// recycled descriptor. Kill() makes all pending and future IO fail
/// without closing.
struct Server::ConnShared {
  explicit ConnShared(int fd_in) : fd(fd_in) {}
  ~ConnShared() {
    if (fd >= 0) ::close(fd);
  }
  void Kill() {
    if (alive.exchange(false, std::memory_order_relaxed)) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  const int fd;
  std::mutex write_mu;
  std::atomic<bool> alive{true};
};

struct Server::Connection {
  uint64_t id = 0;
  std::shared_ptr<ConnShared> shared;
  std::string read_buf;
  std::string session;  // attached session token ("" = none)
};

struct Server::Request {
  std::string line;
  std::shared_ptr<ConnShared> conn;
  Deadline deadline;
  CancellationToken cancel;
  /// Client idempotency key ("idem=K <cmd>"; empty = none).
  std::string idem_key;
};

struct Server::SessionEntry {
  std::string token;
  /// Per-session quota (child of the server budget; null when resource
  /// governance is off). Declared before `session` so the quota outlives
  /// the session that bills against it.
  std::unique_ptr<MemoryBudget> quota;
  std::unique_ptr<DebugSession> session;
  std::deque<Request> queue;
  bool running = false;
  bool in_ready = false;
  /// Wants durability; actual journaling starts after the first complete
  /// run (EnableDurability requires one).
  bool durable = false;
  /// Journal failure: live state dropped, disk authoritative, all work
  /// refused until `resume` rebuilds the session from the durable state.
  bool degraded = false;
  std::string dir;
  uint64_t attached_conn = 0;
  /// In-flight request bookkeeping so a dropped connection can cancel it.
  std::shared_ptr<ConnShared> running_conn;
  CancellationToken running_cancel;
  /// Watchdog bookkeeping (see Options::watchdog_interval_ms).
  std::chrono::steady_clock::time_point running_since;
  bool stuck_flagged = false;
  /// Acked responses by idempotency key, oldest first (bounded by
  /// Options::idempotency_window). Owned by whichever worker holds
  /// `running` — or by mu_ when idle — so it needs no lock of its own.
  /// Lives on the entry, not the DebugSession, so it survives degrade +
  /// resume: a retry of an edit acked before the degrade still replays.
  std::deque<std::pair<std::string, std::string>> idem_window;
};

Server::Server(std::shared_ptr<const Table> a, std::shared_ptr<const Table> b,
               std::shared_ptr<const CandidateSet> pairs, Options options)
    : a_(std::move(a)),
      b_(std::move(b)),
      pairs_(std::move(pairs)),
      options_(std::move(options)) {
  boot_id_ = static_cast<uint64_t>(::getpid()) ^
             static_cast<uint64_t>(
                 std::chrono::system_clock::now().time_since_epoch().count());
  if (options_.mem_budget_bytes > 0 || options_.session_quota_bytes > 0) {
    budget_ = std::make_unique<MemoryBudget>(options_.mem_budget_bytes,
                                             "server");
  }
}

Server::~Server() { Abort(); }

Status Server::Start() {
  std::lock_guard<std::mutex> l(mu_);
  if (state_ != State::kIdle) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(
        StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  auto fail = [this](const char* what) {
    Status s = Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  };
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(addr.sin_port);
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) return fail("pipe2");

  state_ = State::kRunning;
  if (budget_ != nullptr) {
    // Cross-tenant graceful degradation: under global pressure, evict
    // idle sessions' id caches (cheapest to rebuild). A session's *own*
    // overflow is handled inside PairContext/Memo (self-degradation), not
    // here — its caches are in active use by the worker that triggered
    // the reserve.
    id_reclaimer_ = budget_->AddReclaimer(
        MemoryBudget::kReclaimIdCaches, "idle-session-id-caches",
        [this](size_t want) { return ReclaimSessionCaches(want); });
  }
  const size_t nw = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(nw);
  for (size_t i = 0; i < nw; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  poll_thread_ = std::thread([this] { PollLoop(); });
  if (options_.watchdog_interval_ms > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  return Status::Ok();
}

std::string Server::ErrShed(const std::string& msg) const {
  return StrFormat("err ResourceExhausted %s retry_after_ms=%g",
                   msg.c_str(), options_.retry_after_ms);
}

size_t Server::ReclaimSessionCaches(size_t want) {
  // Called from inside MemoryBudget::Reserve with the registry mutex
  // held; try_lock only — blocking on mu_ here could deadlock against a
  // thread that holds mu_ and waits on the registry (none exists today,
  // but the invariant is cheap to keep).
  std::unique_lock<std::mutex> l(mu_, std::try_to_lock);
  if (!l.owns_lock()) return 0;
  size_t freed = 0;
  for (auto& kv : sessions_) {
    if (freed >= want) break;
    SessionEntry& entry = *kv.second;
    // A running session's caches are mid-use by its worker (the cache
    // builds are serial-only); only idle sessions are evictable.
    if (entry.running || entry.session == nullptr) continue;
    freed += entry.session->context().DropIdCaches();
  }
  return freed;
}

void Server::WatchdogLoop() {
  std::unique_lock<std::mutex> l(mu_);
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.watchdog_interval_ms);
  while (!watchdog_exit_) {
    watchdog_cv_.wait_for(l, interval, [&] { return watchdog_exit_; });
    if (watchdog_exit_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& kv : sessions_) {
      SessionEntry& entry = *kv.second;
      if (!entry.running || entry.stuck_flagged) continue;
      const double ms =
          std::chrono::duration<double, std::milli>(now - entry.running_since)
              .count();
      if (ms >= options_.stuck_task_ms) {
        // Surface, don't kill: the request may legitimately be slow, and
        // cancellation is already the client's lever (deadlines). The
        // counter makes a wedged worker visible in `stats`.
        entry.stuck_flagged = true;
        stats_.tasks_stuck++;
      }
    }
  }
}

void Server::WriteResponse(const std::shared_ptr<ConnShared>& conn,
                           std::string_view payload) {
  if (!conn || !conn->alive.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> wl(conn->write_mu);
  if (!conn->alive.load(std::memory_order_relaxed)) return;
  Status s = WriteFrameFd(conn->fd, payload);
  if (!s.ok()) conn->Kill();
}

void Server::ScheduleLocked(const std::string& token, SessionEntry& entry) {
  if (entry.running || entry.in_ready || entry.degraded ||
      entry.queue.empty()) {
    return;
  }
  ready_.push_back(token);
  entry.in_ready = true;
  work_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Poll thread: accept, read, frame, admit.
// ---------------------------------------------------------------------------

void Server::PollLoop() {
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> owner;  // 0 = wake pipe, 1 = listener, else conn id
  char buf[65536];
  for (;;) {
    pfds.clear();
    owner.clear();
    bool accepting = false;
    {
      std::lock_guard<std::mutex> l(mu_);
      if (state_ == State::kStopped) return;
      // Keep polling the listener while draining so new connections get an
      // explicit refusal instead of hanging in the backlog.
      accepting = listen_fd_ >= 0;
      pfds.push_back({wake_fds_[0], POLLIN, 0});
      owner.push_back(0);
      if (accepting) {
        pfds.push_back({listen_fd_, POLLIN, 0});
        owner.push_back(1);
      }
      for (const auto& kv : conns_) {
        pfds.push_back({kv.second->shared->fd, POLLIN, 0});
        owner.push_back(kv.first);
      }
    }

    const int rc = ::poll(pfds.data(), pfds.size(), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // Transient poll failure: back off rather than spin.
      struct timespec ts = {0, 50 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
      continue;
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (owner[i] == 0) {
        // Drain the wake pipe.
        char w[64];
        while (::read(wake_fds_[0], w, sizeof(w)) > 0) {
        }
        continue;
      }
      if (owner[i] == 1) {
        for (;;) {
          const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          bool shed = false;
          std::string shed_msg;
          {
            std::lock_guard<std::mutex> l(mu_);
            if (state_ != State::kRunning) {
              shed = true;
              shed_msg = Err(StatusCode::kFailedPrecondition,
                             "server shutting down");
            } else if (FaultFire("serve.accept")) {
              shed = true;
              shed_msg.clear();  // simulated network drop: no response
              stats_.connections_shed++;
            } else if (conns_.size() >= options_.max_connections) {
              shed = true;
              shed_msg = Err(StatusCode::kResourceExhausted,
                             StrFormat("connection limit reached (%zu)",
                                       options_.max_connections));
              stats_.connections_shed++;
            } else {
              auto conn = std::make_unique<Connection>();
              conn->id = next_conn_id_++;
              conn->shared = std::make_shared<ConnShared>(cfd);
              conns_.emplace(conn->id, std::move(conn));
              stats_.connections_accepted++;
            }
          }
          if (shed) {
            if (!shed_msg.empty()) (void)WriteFrameFd(cfd, shed_msg);
            ::close(cfd);
          }
        }
        continue;
      }

      // Connection readable (or hung up).
      Connection* conn = nullptr;
      {
        std::lock_guard<std::mutex> l(mu_);
        auto it = conns_.find(owner[i]);
        if (it != conns_.end()) conn = it->second.get();
      }
      if (conn == nullptr) continue;  // dropped since the poll snapshot
      bool dead = false;
      for (;;) {
        const ssize_t n = ::read(conn->shared->fd, buf, sizeof(buf));
        if (n > 0) {
          if (FaultFire("serve.read")) {
            dead = true;  // simulated mid-stream connection loss
            break;
          }
          conn->read_buf.append(buf, static_cast<size_t>(n));
          if (conn->read_buf.size() > options_.max_frame_bytes + 4) {
            // More buffered than one max frame: frame extraction below
            // either consumes it or flags a protocol error.
          }
          continue;
        }
        if (n == 0) {
          dead = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        dead = true;
        break;
      }
      if (!dead) {
        std::string payload;
        bool proto_error = false;
        while (ExtractFrame(&conn->read_buf, &payload,
                            options_.max_frame_bytes, &proto_error)) {
          HandleFrame(*conn, payload);
        }
        if (proto_error) {
          WriteResponse(conn->shared,
                        Err(StatusCode::kParseError, "oversized frame"));
          dead = true;
        }
      }
      if (dead) DropConnection(owner[i]);
    }
  }
}

void Server::DropConnection(uint64_t conn_id) {
  std::shared_ptr<ConnShared> shared;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    shared = it->second->shared;
    // Cancel the in-flight request of the session this connection was
    // driving; queued requests stay but are skipped at execution (their
    // conn is dead), which frees their queue slots in order.
    for (auto& kv : sessions_) {
      SessionEntry& entry = *kv.second;
      if (entry.attached_conn == conn_id) entry.attached_conn = 0;
      if (entry.running && entry.running_conn == shared) {
        entry.running_cancel.RequestCancel();
      }
    }
    conns_.erase(it);
  }
  shared->Kill();
}

// ---------------------------------------------------------------------------
// Frame handling (poll thread).
// ---------------------------------------------------------------------------

void Server::HandleFrame(Connection& conn, std::string_view payload) {
  std::string_view line = TrimAscii(payload);
  // Optional idempotency key prefix: "idem=K <command>". The key rides
  // on the queued request; the command itself is parsed (and stored)
  // without it, so replay detection never changes execution semantics.
  std::string idem_key;
  if (StartsWith(line, "idem=")) {
    std::string_view after = line;
    const std::string_view tok = TakeToken(after);
    idem_key = std::string(tok.substr(5));
    if (idem_key.empty() || idem_key.size() > 64) {
      WriteResponse(conn.shared,
                    Err(StatusCode::kParseError,
                        "idempotency key must be 1-64 characters"));
      return;
    }
    line = after;
  }
  std::string_view rest = line;
  const std::string_view verb = TakeToken(rest);

  if (verb == "ping") {
    WriteResponse(conn.shared, "ok pong");
    return;
  }
  if (verb == "stats") {
    std::string resp;
    {
      std::lock_guard<std::mutex> l(mu_);
      Stats gov = stats_;
      FillGovernorStatsLocked(gov);
      resp = StrFormat(
          "ok sessions=%zu conns=%zu opened=%llu resumed=%llu degraded=%llu "
          "executed=%llu shed_requests=%llu shed_conns=%llu expired=%llu "
          "dropped=%llu mem_used=%zu mem_limit=%zu mem_denials=%llu "
          "reclaims=%llu reclaimed=%llu replays=%llu stuck=%llu "
          "memo_bytes=%zu id_bytes=%zu interner_bytes=%zu",
          sessions_.size(), conns_.size(),
          static_cast<unsigned long long>(stats_.sessions_opened),
          static_cast<unsigned long long>(stats_.sessions_resumed),
          static_cast<unsigned long long>(stats_.sessions_degraded),
          static_cast<unsigned long long>(stats_.requests_executed),
          static_cast<unsigned long long>(stats_.requests_shed),
          static_cast<unsigned long long>(stats_.connections_shed),
          static_cast<unsigned long long>(stats_.requests_expired),
          static_cast<unsigned long long>(stats_.requests_dropped),
          gov.mem_used_bytes, gov.mem_limit_bytes,
          static_cast<unsigned long long>(gov.mem_denials),
          static_cast<unsigned long long>(gov.mem_reclaim_runs),
          static_cast<unsigned long long>(gov.mem_reclaimed_bytes),
          static_cast<unsigned long long>(gov.idem_replays),
          static_cast<unsigned long long>(gov.tasks_stuck), gov.memo_bytes,
          gov.id_cache_bytes, gov.interner_bytes);
    }
    WriteResponse(conn.shared, resp);
    return;
  }

  {
    std::lock_guard<std::mutex> l(mu_);
    if (state_ != State::kRunning) {
      // Draining: queued work finishes, nothing new is admitted.
      WriteResponse(conn.shared, Err(StatusCode::kFailedPrecondition,
                                     "server draining; no new requests"));
      return;
    }
  }

  if (verb == "open") {
    HandleOpen(conn, rest);
    return;
  }
  if (verb == "attach") {
    HandleAttach(conn, rest);
    return;
  }
  if (verb == "resume") {
    HandleResume(conn, rest);
    return;
  }

  // Everything else runs against the attached session via the queue.
  if (conn.session.empty()) {
    WriteResponse(conn.shared,
                  Err(StatusCode::kFailedPrecondition,
                      "no session attached (use open/attach/resume)"));
    return;
  }
  std::string resp;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = sessions_.find(conn.session);
    if (it == sessions_.end()) {
      resp = Err(StatusCode::kNotFound, "session closed");
    } else {
      SessionEntry& entry = *it->second;
      if (entry.degraded && verb == "close") {
        // Closing a degraded session frees its slot without a resume.
        sessions_.erase(it);
        resp = "ok closed";
      } else if (entry.degraded) {
        resp = Err(StatusCode::kFailedPrecondition,
                   "session degraded by a journal failure; resume " +
                       conn.session + " to continue");
      } else if (entry.queue.size() >= options_.max_queue_per_session) {
        stats_.requests_shed++;
        resp = ErrShed(StrFormat("session queue full (%zu queued)",
                                 entry.queue.size()));
      } else {
        Request req;
        req.line = std::string(line);
        req.conn = conn.shared;
        req.idem_key = std::move(idem_key);
        if (verb == "run") {
          // An explicit run deadline starts counting at admission, like
          // the default one, so queue time counts against it.
          std::string_view args = rest;
          double ms = 0;
          if (ParseDouble(TakeToken(args), &ms) && ms > 0) {
            req.deadline = Deadline::AfterMillis(ms);
          }
        }
        if (!req.deadline.has_deadline() && options_.default_deadline_ms > 0) {
          req.deadline = Deadline::AfterMillis(options_.default_deadline_ms);
        }
        entry.queue.push_back(std::move(req));
        queued_requests_++;
        ScheduleLocked(conn.session, entry);
        return;  // response comes from the worker
      }
    }
  }
  WriteResponse(conn.shared, resp);
}

void Server::HandleOpen(Connection& conn, std::string_view rest) {
  bool durable = false;
  std::string token;
  while (!rest.empty()) {
    const std::string_view tok = TakeToken(rest);
    if (tok == "durable") {
      durable = true;
    } else if (StartsWith(tok, "token=")) {
      token = std::string(tok.substr(6));
    } else if (!tok.empty()) {
      WriteResponse(conn.shared,
                    Err(StatusCode::kParseError,
                        "open takes [durable] [token=T]"));
      return;
    }
  }
  if (!token.empty() && !ValidToken(token)) {
    WriteResponse(conn.shared,
                  Err(StatusCode::kParseError,
                      "token must be [A-Za-z0-9_-]{1,64}"));
    return;
  }
  std::string resp;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (durable && options_.durability_root.empty()) {
      resp = Err(StatusCode::kFailedPrecondition,
                 "durability not configured on this server");
    } else if (FaultFire("serve.session")) {
      stats_.requests_shed++;
      resp = ErrShed("session allocation failed (injected)");
    } else if (sessions_.size() >= options_.max_sessions) {
      stats_.requests_shed++;
      resp = ErrShed(StrFormat("session table full (%zu sessions)",
                               sessions_.size()));
    } else if (budget_ != nullptr && !budget_->unlimited() &&
               budget_->remaining() == 0) {
      // Admission control: a fully consumed budget means a new session
      // could not even warm its caches; shed at the door with a hint
      // instead of letting it starve inside.
      stats_.requests_shed++;
      resp = ErrShed(StrFormat("memory budget exhausted (%zu bytes in use)",
                               budget_->used()));
    } else {
      if (token.empty()) {
        token = StrFormat("s%llu-%llx",
                          static_cast<unsigned long long>(next_token_++),
                          static_cast<unsigned long long>(boot_id_ & 0xffff));
      }
      if (sessions_.count(token) != 0) {
        resp = Err(StatusCode::kAlreadyExists,
                   "session token already in use");
      } else {
        DebugSession::Options so;
        so.num_threads = options_.session_threads;
        if (options_.session_sharded) {
          // Out-of-core sessions run in batch mode: sharding needs the
          // memo non-resident, which rules out incremental maintenance.
          so.sharded = true;
          so.shard_pairs = options_.session_shard_pairs;
          so.incremental = false;
        }
        auto entry = std::make_unique<SessionEntry>();
        entry->token = token;
        if (budget_ != nullptr) {
          entry->quota = std::make_unique<MemoryBudget>(
              budget_.get(), options_.session_quota_bytes,
              "session/" + token);
          so.budget = entry->quota.get();
        }
        entry->session =
            std::make_unique<DebugSession>(a_, b_, pairs_, so);
        entry->durable = durable;
        if (durable) entry->dir = options_.durability_root + "/" + token;
        entry->attached_conn = conn.id;
        sessions_.emplace(token, std::move(entry));
        stats_.sessions_opened++;
        conn.session = token;
        resp = "ok token=" + token;
      }
    }
  }
  WriteResponse(conn.shared, resp);
}

void Server::HandleAttach(Connection& conn, std::string_view rest) {
  const std::string token(TakeToken(rest));
  std::string resp;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = sessions_.find(token);
    if (it == sessions_.end()) {
      resp = Err(StatusCode::kNotFound,
                 "no live session with that token (durable sessions: resume)");
    } else {
      SessionEntry& entry = *it->second;
      if (entry.attached_conn != 0 && entry.attached_conn != conn.id &&
          conns_.count(entry.attached_conn) != 0) {
        resp = Err(StatusCode::kFailedPrecondition,
                   "session attached to another live connection");
      } else {
        entry.attached_conn = conn.id;
        conn.session = token;
        resp = entry.degraded ? "ok token=" + token + " degraded=1"
                              : "ok token=" + token;
      }
    }
  }
  WriteResponse(conn.shared, resp);
}

void Server::HandleResume(Connection& conn, std::string_view rest) {
  const std::string token(TakeToken(rest));
  if (!ValidToken(token)) {
    WriteResponse(conn.shared, Err(StatusCode::kParseError,
                                   "resume takes a session token"));
    return;
  }
  std::string resp;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (options_.durability_root.empty()) {
      resp = Err(StatusCode::kFailedPrecondition,
                 "durability not configured on this server");
    } else {
      auto it = sessions_.find(token);
      SessionEntry* entry = nullptr;
      if (it != sessions_.end()) {
        if (!it->second->degraded) {
          resp = Err(StatusCode::kFailedPrecondition,
                     "session is live; use attach");
        } else if (it->second->running) {
          // A worker still owns the old session object; let it finish.
          resp = Err(StatusCode::kFailedPrecondition,
                     "session busy; retry resume shortly");
        } else {
          entry = it->second.get();
        }
      } else if (FaultFire("serve.session")) {
        stats_.requests_shed++;
        resp = ErrShed("session allocation failed (injected)");
      } else if (sessions_.size() >= options_.max_sessions) {
        stats_.requests_shed++;
        resp = ErrShed(StrFormat("session table full (%zu sessions)",
                                 sessions_.size()));
      } else {
        auto fresh = std::make_unique<SessionEntry>();
        fresh->token = token;
        entry = fresh.get();
        sessions_.emplace(token, std::move(fresh));
      }
      if (entry != nullptr) {
        DebugSession::Options so;
        so.num_threads = options_.session_threads;
        // Note: no sharding here — resume is durable-only, and durability
        // requires incremental sessions, which sharding rules out.
        if (budget_ != nullptr) {
          // Reuse the degraded entry's quota (its billing drained when
          // the old session object was dropped); fresh entries get a
          // fresh child.
          if (entry->quota == nullptr) {
            entry->quota = std::make_unique<MemoryBudget>(
                budget_.get(), options_.session_quota_bytes,
                "session/" + token);
          }
          so.budget = entry->quota.get();
        }
        entry->session = std::make_unique<DebugSession>(a_, b_, pairs_, so);
        entry->durable = true;
        entry->degraded = false;  // re-flagged by the worker on failure
        entry->dir = options_.durability_root + "/" + token;
        entry->attached_conn = conn.id;
        conn.session = token;
        Request req;
        req.line = "resume " + token;
        req.conn = conn.shared;
        entry->queue.push_front(std::move(req));  // recovery runs first
        queued_requests_++;
        ScheduleLocked(token, *entry);
        return;  // worker responds after Recover()
      }
    }
  }
  WriteResponse(conn.shared, resp);
}

// ---------------------------------------------------------------------------
// Workers: round-robin session dispatch.
// ---------------------------------------------------------------------------

void Server::WorkerLoop() {
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    work_cv_.wait(l, [&] { return workers_exit_ || !ready_.empty(); });
    if (workers_exit_ && (abort_ || ready_.empty())) return;
    if (ready_.empty()) continue;
    const std::string token = std::move(ready_.front());
    ready_.pop_front();
    auto it = sessions_.find(token);
    if (it == sessions_.end()) continue;  // closed while queued
    SessionEntry& entry = *it->second;
    entry.in_ready = false;
    if (entry.running || entry.degraded || entry.queue.empty()) continue;
    Request req = std::move(entry.queue.front());
    entry.queue.pop_front();
    queued_requests_--;
    entry.running = true;
    running_requests_++;
    entry.running_conn = req.conn;
    entry.running_cancel = req.cancel;
    entry.running_since = std::chrono::steady_clock::now();
    entry.stuck_flagged = false;
    // Idempotency replay: a redelivered key answers with the response the
    // original delivery already acknowledged, without re-executing — this
    // is what makes client retries exactly-once for edits. Checked under
    // mu_ (the window belongs to the session entry).
    std::string replay_resp;
    bool replay = false;
    if (!req.idem_key.empty()) {
      for (const auto& kv : entry.idem_window) {
        if (kv.first == req.idem_key) {
          replay_resp = kv.second;
          replay = true;
          break;
        }
      }
    }
    l.unlock();

    std::string deferred_resp;
    std::string executed_resp;
    bool close_session = false;
    if (replay) {
      WriteResponse(req.conn, replay_resp);
    } else {
      close_session =
          ExecuteRequest(entry, req, &deferred_resp, &executed_resp);
    }

    std::deque<Request> doomed;
    l.lock();
    running_requests_--;
    stats_.requests_executed++;
    if (replay) stats_.idem_replays++;
    auto it2 = sessions_.find(token);
    if (it2 != sessions_.end()) {
      SessionEntry& e2 = *it2->second;
      e2.running = false;
      e2.running_conn.reset();
      e2.running_cancel = CancellationToken();
      if (close_session) {
        doomed.swap(e2.queue);
        queued_requests_ -= doomed.size();
        sessions_.erase(it2);
      } else {
        // Only acknowledged ("ok ...") responses enter the dedup window:
        // a stored error would wedge every retry of that key, while
        // re-executing a failed edit is safe — nothing was committed.
        if (!replay && !req.idem_key.empty() &&
            options_.idempotency_window > 0 &&
            executed_resp.compare(0, 2, "ok") == 0) {
          e2.idem_window.emplace_back(req.idem_key, executed_resp);
          while (e2.idem_window.size() > options_.idempotency_window) {
            e2.idem_window.pop_front();
          }
        }
        // Re-enqueue at the tail: one request per turn keeps heavy
        // sessions from starving the rest (round-robin fairness).
        ScheduleLocked(token, e2);
      }
    }
    if (queued_requests_ == 0 && running_requests_ == 0) {
      drain_cv_.notify_all();
    }
    l.unlock();
    if (close_session) {
      // Acknowledged only after the slot is free: a client that reads
      // "ok closed" may immediately re-open without racing the erase.
      WriteResponse(req.conn, deferred_resp);
    }
    for (Request& d : doomed) {
      WriteResponse(d.conn, Err(StatusCode::kNotFound, "session closed"));
    }
    l.lock();
  }
}

bool Server::ExecuteRequest(SessionEntry& entry, Request& req,
                            std::string* deferred_resp,
                            std::string* executed_resp) {
  if (FaultFire("serve.slow_task")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!req.conn->alive.load(std::memory_order_relaxed)) {
    // The requester vanished; running an edit now would commit work the
    // client never saw acknowledged.
    std::lock_guard<std::mutex> l(mu_);
    stats_.requests_dropped++;
    return false;
  }
  if (req.deadline.expired()) {
    WriteResponse(req.conn, Err(StatusCode::kDeadlineExceeded,
                                "request expired before execution"));
    std::lock_guard<std::mutex> l(mu_);
    stats_.requests_expired++;
    return false;
  }
  bool close_session = false;
  const std::string resp = ExecuteSessionCommand(entry, req, &close_session);
  if (close_session) {
    *deferred_resp = resp;  // written by the caller after the erase
  } else {
    *executed_resp = resp;  // recorded in the idem window if "ok ..."
    WriteResponse(req.conn, resp);
  }
  return close_session;
}

void Server::DegradeSession(SessionEntry& entry, const Status& why) {
  std::deque<Request> doomed;
  {
    std::lock_guard<std::mutex> l(mu_);
    entry.degraded = true;
    // Drop the live state: the fsync'd journal + checkpoint on disk are
    // authoritative now, and resume rebuilds exactly from them. Keeping a
    // possibly-diverged in-memory session would let later edits build on
    // state the client was never promised.
    entry.session.reset();
    stats_.sessions_degraded++;
    doomed.swap(entry.queue);
    queued_requests_ -= doomed.size();
    if (queued_requests_ == 0 && running_requests_ == 0) {
      drain_cv_.notify_all();
    }
  }
  const std::string msg =
      Err(StatusCode::kFailedPrecondition,
          "session degraded (" + why.message() + "); resume " + entry.token +
              " to continue");
  for (Request& d : doomed) WriteResponse(d.conn, msg);
}

std::string Server::ExecuteSessionCommand(SessionEntry& entry, Request& req,
                                          bool* close_session) {
  std::string_view rest = req.line;
  const std::string_view verb = TakeToken(rest);
  DebugSession& s = *entry.session;

  // Journal/checkpoint failures on a durable session poison it: the
  // response is the error, and the session degrades so nothing can build
  // on top of in-memory state that disk never saw.
  auto finish_edit = [&](const Status& st,
                         const std::string& ok_what) -> std::string {
    if (st.ok()) {
      if (s.has_run()) {
        return StrFormat("ok %s matches=%zu", ok_what.c_str(),
                         s.Run().Count());
      }
      return "ok " + ok_what;
    }
    if (st.code() == StatusCode::kIoError && entry.durable && s.durable()) {
      const std::string resp =
          Err(st.code(), st.message() + "; session degraded, resume " +
                             entry.token + " to continue");
      DegradeSession(entry, st);  // invalidates `s`
      return resp;
    }
    if (st.code() == StatusCode::kResourceExhausted) {
      // Budget denial: the edit did not commit, so a retry after pressure
      // passes is safe — tell the client when.
      return ErrShed(st.message());
    }
    return Err(st);
  };

  if (verb == "resume") {
    Status rs = s.Recover(entry.dir, options_.checkpoint_every);
    if (!rs.ok()) {
      // ResourceExhausted recovery failures get the retry hint: the disk
      // state is intact, so resuming again once pressure passes succeeds.
      const std::string resp = rs.code() == StatusCode::kResourceExhausted
                                   ? ErrShed(rs.message())
                                   : Err(rs);
      DegradeSession(entry, rs);
      return resp;
    }
    {
      std::lock_guard<std::mutex> l(mu_);
      stats_.sessions_resumed++;
    }
    return StrFormat("ok token=%s matches=%zu", entry.token.c_str(),
                     s.Run().Count());
  }

  if (verb == "run") {
    RunControl control(req.cancel, req.deadline);
    MatchResult r = s.Run(control);
    if (r.partial) {
      if (r.status.code() == StatusCode::kResourceExhausted &&
          r.pairs_completed == 0) {
        // Nothing ran at all — a pure budget denial, worth a retry hint
        // instead of a partial-progress report.
        return ErrShed(r.status.message());
      }
      return StrFormat("ok partial=1 reason=%s completed=%zu matches=%zu",
                       StatusCodeName(r.status.code()), r.pairs_completed,
                       r.MatchCount());
    }
    if (entry.durable && !s.durable()) {
      // Durability starts at the first complete run; a failure here is
      // retryable (`run` again) because nothing was journaled yet.
      Status ds = s.EnableDurability(entry.dir, options_.checkpoint_every);
      if (!ds.ok()) {
        return Err(ds.code(),
                   "run ok but durability enable failed (retry run): " +
                       ds.message());
      }
    }
    return StrFormat("ok matches=%zu pairs=%zu", r.MatchCount(),
                     s.candidates().size());
  }

  if (verb == "add_rule") {
    if (TrimAscii(rest).empty()) {
      return Err(StatusCode::kParseError, "add_rule takes a rule in DSL");
    }
    Result<RuleId> r = s.AddRuleText(rest);
    if (!r.ok()) return finish_edit(r.status(), "");
    const std::vector<Rule>& rules = s.function().rules();
    std::string what = "rule=?";
    for (size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].id() == *r) {
        what = StrFormat("rule=%s pos=%zu", rules[i].name().c_str(), i);
        break;
      }
    }
    return finish_edit(Status::Ok(), what);
  }
  if (verb == "remove_rule") {
    size_t pos = 0;
    if (!TakeIndex(rest, &pos)) {
      return Err(StatusCode::kParseError, "remove_rule takes a rule index");
    }
    const std::vector<Rule>& rules = s.function().rules();
    if (pos >= rules.size()) {
      return Err(StatusCode::kNotFound, "rule index out of range");
    }
    return finish_edit(s.RemoveRule(rules[pos].id()), "removed");
  }
  if (verb == "add_pred") {
    size_t pos = 0;
    if (!TakeIndex(rest, &pos)) {
      return Err(StatusCode::kParseError,
                 "add_pred takes a rule index and a predicate");
    }
    const std::vector<Rule>& rules = s.function().rules();
    if (pos >= rules.size()) {
      return Err(StatusCode::kNotFound, "rule index out of range");
    }
    Result<Rule> parsed = ParseRule(rest, s.catalog());
    if (!parsed.ok()) return Err(parsed.status());
    if (parsed->size() != 1) {
      return Err(StatusCode::kParseError, "expected exactly one predicate");
    }
    return finish_edit(
        s.AddPredicate(rules[pos].id(), parsed->predicate(0)).status(),
        "added");
  }
  if (verb == "remove_pred") {
    size_t rpos = 0, ppos = 0;
    if (!TakeIndex(rest, &rpos) || !TakeIndex(rest, &ppos)) {
      return Err(StatusCode::kParseError,
                 "remove_pred takes rule and predicate indices");
    }
    const std::vector<Rule>& rules = s.function().rules();
    if (rpos >= rules.size() || ppos >= rules[rpos].size()) {
      return Err(StatusCode::kNotFound, "index out of range");
    }
    return finish_edit(
        s.RemovePredicate(rules[rpos].id(), rules[rpos].predicate(ppos).id),
        "removed");
  }
  if (verb == "set_threshold") {
    size_t rpos = 0, ppos = 0;
    double threshold = 0;
    if (!TakeIndex(rest, &rpos) || !TakeIndex(rest, &ppos) ||
        !ParseDouble(TrimAscii(rest), &threshold)) {
      return Err(StatusCode::kParseError,
                 "set_threshold takes rule index, predicate index, value");
    }
    const std::vector<Rule>& rules = s.function().rules();
    if (rpos >= rules.size() || ppos >= rules[rpos].size()) {
      return Err(StatusCode::kNotFound, "index out of range");
    }
    return finish_edit(
        s.SetThreshold(rules[rpos].id(), rules[rpos].predicate(ppos).id,
                       threshold),
        "set");
  }
  if (verb == "undo") {
    return finish_edit(s.Undo(), "undone");
  }
  if (verb == "rules") {
    const std::vector<Rule>& rules = s.function().rules();
    std::string resp = StrFormat("ok rules=%zu", rules.size());
    for (const Rule& r : rules) {
      resp += " ; ";
      resp += r.empty() ? r.name() + " (empty)" : RuleToDsl(r, s.catalog());
    }
    return resp;
  }
  if (verb == "digest") {
    const uint32_t d = SessionStateDigest(s);
    return StrFormat("ok digest=%08x matches=%zu", d, s.Run().Count());
  }
  if (verb == "checkpoint") {
    if (!s.durable()) {
      return Err(StatusCode::kFailedPrecondition,
                 "session is not durable (or has not completed a run)");
    }
    return finish_edit(s.Checkpoint(), "checkpointed");
  }
  if (verb == "close") {
    *close_session = true;
    if (s.durable()) {
      Status cs = s.Checkpoint();
      if (!cs.ok()) {
        // Still close, but tell the client the final checkpoint failed;
        // the journal already holds every acknowledged edit.
        return Err(cs.code(),
                   "closed, but final checkpoint failed: " + cs.message());
      }
    }
    return "ok closed";
  }
  return Err(StatusCode::kParseError,
             "unknown command: " + std::string(verb));
}

// ---------------------------------------------------------------------------
// Shutdown paths.
// ---------------------------------------------------------------------------

void Server::JoinThreads() {
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (poll_thread_.joinable()) poll_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // Threads are gone, so no Reserve can be in flight: now it is safe to
  // unhook the reclaimers that capture `this`.
  if (budget_ != nullptr) {
    budget_->RemoveReclaimer(id_reclaimer_);
  }
}

void Server::Shutdown() {
  {
    std::unique_lock<std::mutex> l(mu_);
    if (state_ != State::kRunning) return;
    state_ = State::kDraining;
    if (wake_fds_[1] >= 0) (void)!::write(wake_fds_[1], "w", 1);
    // Everything already admitted drains through the workers; new
    // requests are refused above.
    drain_cv_.wait(
        l, [&] { return queued_requests_ == 0 && running_requests_ == 0; });
    workers_exit_ = true;
    watchdog_exit_ = true;
    work_cv_.notify_all();
    watchdog_cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> l(mu_);
    state_ = State::kStopped;
    if (wake_fds_[1] >= 0) (void)!::write(wake_fds_[1], "w", 1);
  }
  if (poll_thread_.joinable()) poll_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  if (budget_ != nullptr) {
    budget_->RemoveReclaimer(id_reclaimer_);
  }

  // All threads are gone: checkpoint every durable session so restart
  // recovery replays an empty (or tiny) journal.
  std::lock_guard<std::mutex> l(mu_);
  for (auto& kv : sessions_) {
    SessionEntry& entry = *kv.second;
    if (entry.session != nullptr && entry.session->durable()) {
      (void)entry.session->Checkpoint();  // journal still holds the edits
    }
  }
  sessions_.clear();
  for (auto& kv : conns_) kv.second->shared->Kill();
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Server::Abort() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (state_ == State::kIdle || state_ == State::kStopped) {
      state_ = State::kStopped;
      return;
    }
    state_ = State::kStopped;
    abort_ = true;
    workers_exit_ = true;
    watchdog_exit_ = true;
    for (auto& kv : sessions_) {
      if (kv.second->running) kv.second->running_cancel.RequestCancel();
    }
    for (auto& kv : conns_) kv.second->shared->Kill();
    work_cv_.notify_all();
    watchdog_cv_.notify_all();
    if (wake_fds_[1] >= 0) (void)!::write(wake_fds_[1], "w", 1);
  }
  JoinThreads();

  std::lock_guard<std::mutex> l(mu_);
  // No checkpoints: disk keeps exactly the fsync'd journal + last
  // checkpoint, as a real crash would.
  sessions_.clear();
  conns_.clear();
  ready_.clear();
  queued_requests_ = 0;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Server::FillGovernorStatsLocked(Stats& s) const {
  if (budget_ != nullptr) {
    s.mem_used_bytes = budget_->used();
    s.mem_limit_bytes = budget_->limit();
    const MemoryBudget::Stats bs = budget_->stats();
    s.mem_denials = bs.denials;
    s.mem_reclaim_runs = bs.reclaim_runs;
    s.mem_reclaimed_bytes = bs.reclaimed_bytes;
  }
  for (const auto& kv : sessions_) {
    const SessionEntry& entry = *kv.second;
    // Skip running sessions: their caches are being mutated by a worker
    // and walking them here would race.
    if (entry.running || entry.session == nullptr) continue;
    const DebugSession::MemoryFootprint fp = entry.session->Footprint();
    s.memo_bytes += fp.memo_bytes;
    s.id_cache_bytes += fp.id_cache_bytes;
    s.interner_bytes += fp.interner_bytes;
  }
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> l(mu_);
  Stats s = stats_;
  s.live_sessions = sessions_.size();
  s.live_connections = conns_.size();
  FillGovernorStatsLocked(s);
  return s;
}

}  // namespace emdbg
