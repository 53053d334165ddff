/// Multi-tenant debug service daemon: hosts many concurrent DebugSessions
/// over one shared in-memory corpus, speaking the length-prefixed protocol
/// of src/serve/wire.h on a loopback TCP port. See src/serve/server.h for
/// the protocol and the failure model.
///
/// Usage:
///   emdbg_serve --dataset=products [--scale=0.02] [--port=0]
///               [--workers=2] [--session-threads=1]
///               [--max-sessions=64] [--max-queue=16] [--max-conns=128]
///               [--deadline-ms=0] [--checkpoint-every=16]
///               [--durability-root=DIR]
///               [--mem-budget=BYTES] [--session-quota=BYTES]
///               [--retry-after-ms=N] [--idem-window=N]
///               [--watchdog-ms=N] [--stuck-ms=N] [--stats-every=SECS]
///               [--fault=SITE:EVERY[:SKIP[:MAX]]]...
///               [--fault-prob=SITE:P[:SEED]]...
///
/// Resource governor: --mem-budget caps the total bytes all sessions'
/// memos, token/id caches and interner arenas may hold (K/M/G suffixes
/// accepted); --session-quota is the per-session child cap. Under
/// pressure the server degrades (evicts idle sessions' caches, then
/// answers ResourceExhausted with a retry_after_ms hint) instead of
/// OOM-aborting. --idem-window sizes the per-session idempotency-key
/// dedup window ("idem=K <cmd>" → exactly-once retries); --watchdog-ms
/// arms the stuck-task watchdog; --stats-every logs a governor stats
/// line to stderr periodically.
///
/// The corpus is generated deterministically from the named paper profile
/// (gen_dataset's generator), so a load generator pointed at the same
/// --dataset/--scale/--seed flags can replay sessions bit-identically.
///
/// Prints "listening host=127.0.0.1 port=<p>" on stdout once ready (the
/// soak script scrapes the ephemeral port). SIGTERM / SIGHUP / SIGINT all
/// shut down gracefully: stop admitting, drain queued requests, checkpoint
/// every durable session, exit 0. kill -9 is the crash case the durability
/// layer is built for — acknowledged edits survive in the fsync'd journals
/// under --durability-root and `resume <token>` rebuilds each session.
///
/// --fault arms deterministic fault injection (see
/// src/util/fault_injection.h) inside the *server* process: e.g.
/// --fault=journal.fsync:7 fails every 7th journal fsync,
/// --fault-prob=serve.read:0.01:42 drops ~1% of connection reads with a
/// fixed schedule derived from seed 42.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/datasets.h"
#include "src/data/generator.h"
#include "src/serve/server.h"
#include "src/util/cancellation.h"
#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

using namespace emdbg;

namespace {

struct Args {
  std::string dataset = "products";
  double scale = 0.02;
  int64_t seed = -1;  // -1 = the profile's own seed
  double stats_every_s = 0;  // 0 = no periodic stats log
  Server::Options server;
  std::vector<std::pair<std::string, FaultInjection::Plan>> faults;

  /// "1048576", "64K", "16M", "1G" (case-insensitive suffix).
  static bool ParseBytes(std::string_view s, size_t* out) {
    size_t mult = 1;
    if (!s.empty()) {
      const char c = s.back();
      if (c == 'k' || c == 'K') mult = size_t{1} << 10;
      if (c == 'm' || c == 'M') mult = size_t{1} << 20;
      if (c == 'g' || c == 'G') mult = size_t{1} << 30;
      if (mult != 1) s.remove_suffix(1);
    }
    int64_t n = 0;
    if (!ParseInt64(s, &n) || n < 0) return false;
    *out = static_cast<size_t>(n) * mult;
    return true;
  }

  static bool ParseFault(std::string_view spec, std::string* site,
                         FaultInjection::Plan* plan, bool probabilistic) {
    // SITE:EVERY[:SKIP[:MAX]]  or  SITE:P[:SEED]
    std::vector<std::string_view> parts;
    size_t start = 0;
    while (start <= spec.size()) {
      const size_t colon = spec.find(':', start);
      if (colon == std::string_view::npos) {
        parts.push_back(spec.substr(start));
        break;
      }
      parts.push_back(spec.substr(start, colon - start));
      start = colon + 1;
    }
    if (parts.size() < 2 || parts[0].empty()) return false;
    *site = std::string(parts[0]);
    int64_t n = 0;
    if (probabilistic) {
      if (!ParseDouble(parts[1], &plan->probability) ||
          plan->probability < 0 || plan->probability > 1) {
        return false;
      }
      if (parts.size() > 2) {
        if (!ParseInt64(parts[2], &n) || n < 0) return false;
        plan->seed = static_cast<uint64_t>(n);
      }
      return parts.size() <= 3;
    }
    if (!ParseInt64(parts[1], &n) || n < 0) return false;
    plan->every = static_cast<uint64_t>(n);
    if (parts.size() > 2) {
      if (!ParseInt64(parts[2], &n) || n < 0) return false;
      plan->skip = static_cast<uint64_t>(n);
    }
    if (parts.size() > 3) {
      if (!ParseInt64(parts[3], &n) || n < 0) return false;
      plan->max_failures = static_cast<uint64_t>(n);
    }
    return parts.size() <= 4;
  }

  static bool Parse(int argc, char** argv, Args* out) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      int64_t n = 0;
      if (StartsWith(arg, "--dataset=")) {
        out->dataset = arg.substr(10);
      } else if (StartsWith(arg, "--scale=") &&
                 ParseDouble(arg.substr(8), &out->scale) &&
                 out->scale > 0 && out->scale <= 1.0) {
      } else if (StartsWith(arg, "--seed=") &&
                 ParseInt64(arg.substr(7), &out->seed) && out->seed >= 0) {
      } else if (StartsWith(arg, "--port=") &&
                 ParseInt64(arg.substr(7), &n) && n >= 0 && n <= 65535) {
        out->server.port = static_cast<uint16_t>(n);
      } else if (StartsWith(arg, "--workers=") &&
                 ParseInt64(arg.substr(10), &n) && n > 0) {
        out->server.num_workers = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--session-threads=") &&
                 ParseInt64(arg.substr(18), &n) && n >= 0) {
        out->server.session_threads = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--max-sessions=") &&
                 ParseInt64(arg.substr(15), &n) && n > 0) {
        out->server.max_sessions = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--max-queue=") &&
                 ParseInt64(arg.substr(12), &n) && n > 0) {
        out->server.max_queue_per_session = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--max-conns=") &&
                 ParseInt64(arg.substr(12), &n) && n > 0) {
        out->server.max_connections = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--deadline-ms=") &&
                 ParseInt64(arg.substr(14), &n) && n >= 0) {
        out->server.default_deadline_ms = static_cast<double>(n);
      } else if (StartsWith(arg, "--checkpoint-every=") &&
                 ParseInt64(arg.substr(19), &n) && n > 0) {
        out->server.checkpoint_every = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--durability-root=")) {
        out->server.durability_root = arg.substr(18);
      } else if (StartsWith(arg, "--mem-budget=")) {
        if (!ParseBytes(std::string_view(arg).substr(13),
                        &out->server.mem_budget_bytes)) {
          return false;
        }
      } else if (StartsWith(arg, "--session-quota=")) {
        if (!ParseBytes(std::string_view(arg).substr(16),
                        &out->server.session_quota_bytes)) {
          return false;
        }
      } else if (StartsWith(arg, "--retry-after-ms=") &&
                 ParseDouble(arg.substr(17), &out->server.retry_after_ms) &&
                 out->server.retry_after_ms >= 0) {
      } else if (StartsWith(arg, "--idem-window=") &&
                 ParseInt64(arg.substr(14), &n) && n >= 0) {
        out->server.idempotency_window = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--watchdog-ms=") &&
                 ParseInt64(arg.substr(14), &n) && n >= 0) {
        out->server.watchdog_interval_ms = static_cast<double>(n);
      } else if (StartsWith(arg, "--stuck-ms=") &&
                 ParseInt64(arg.substr(11), &n) && n > 0) {
        out->server.stuck_task_ms = static_cast<double>(n);
      } else if (StartsWith(arg, "--stats-every=") &&
                 ParseDouble(arg.substr(14), &out->stats_every_s) &&
                 out->stats_every_s >= 0) {
      } else if (StartsWith(arg, "--fault=")) {
        std::string site;
        FaultInjection::Plan plan;
        if (!ParseFault(arg.substr(8), &site, &plan, false)) return false;
        out->faults.emplace_back(site, plan);
      } else if (StartsWith(arg, "--fault-prob=")) {
        std::string site;
        FaultInjection::Plan plan;
        if (!ParseFault(arg.substr(13), &site, &plan, true)) return false;
        out->faults.emplace_back(site, plan);
      } else {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Args::Parse(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: emdbg_serve --dataset=NAME [--scale=F] [--seed=N] "
        "[--port=N] [--workers=N] [--session-threads=N] "
        "[--max-sessions=N] "
        "[--max-queue=N] [--max-conns=N] [--deadline-ms=N] "
        "[--checkpoint-every=N] [--durability-root=DIR] "
        "[--mem-budget=BYTES] [--session-quota=BYTES] [--retry-after-ms=N] "
        "[--idem-window=N] [--watchdog-ms=N] [--stuck-ms=N] "
        "[--stats-every=SECS] "
        "[--fault=SITE:EVERY[:SKIP[:MAX]]] [--fault-prob=SITE:P[:SEED]]\n");
    return 2;
  }

  Result<DatasetId> id = DatasetIdFromName(args.dataset);
  if (!id.ok()) {
    std::fprintf(stderr, "error: %s\n", id.status().message().c_str());
    return 2;
  }
  DatasetProfile profile = ScaleProfile(PaperDatasetProfile(*id), args.scale);
  if (args.seed >= 0) profile.seed = static_cast<uint64_t>(args.seed);
  std::fprintf(stderr, "generating %s (scale %g, seed %llu)...\n",
               profile.name.c_str(), args.scale,
               static_cast<unsigned long long>(profile.seed));
  GeneratedDataset ds = GenerateDataset(profile);
  std::fprintf(stderr, "corpus: %zu x %zu rows, %zu candidate pairs\n",
               ds.a.num_rows(), ds.b.num_rows(), ds.candidates.size());

  for (const auto& fault : args.faults) {
    FaultInjection::Arm(fault.first, fault.second);
    std::fprintf(stderr, "fault armed: %s\n", fault.first.c_str());
  }

  auto a = std::make_shared<const Table>(std::move(ds.a));
  auto b = std::make_shared<const Table>(std::move(ds.b));
  auto pairs = std::make_shared<const CandidateSet>(std::move(ds.candidates));
  Server server(a, b, pairs, args.server);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("listening host=127.0.0.1 port=%u\n", server.port());
  std::fflush(stdout);

  // SIGINT / SIGTERM / SIGHUP all request a graceful exit; the poll below
  // is the only place the main thread spends time (plus the periodic
  // governor stats line when --stats-every is set).
  CancellationToken stop;
  ShutdownSignals signals(stop);
  double since_stats_s = 0;
  while (!stop.cancelled() && !signals.exit_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (args.stats_every_s <= 0) continue;
    since_stats_s += 0.1;
    if (since_stats_s + 1e-9 < args.stats_every_s) continue;
    since_stats_s = 0;
    const Server::Stats s = server.stats();
    std::fprintf(
        stderr,
        "stats: sessions=%zu conns=%zu executed=%llu shed=%llu "
        "mem_used=%zu mem_limit=%zu mem_denials=%llu reclaims=%llu "
        "reclaimed=%llu replays=%llu stuck=%llu memo=%zu ids=%zu "
        "interner=%zu\n",
        s.live_sessions, s.live_connections,
        static_cast<unsigned long long>(s.requests_executed),
        static_cast<unsigned long long>(s.requests_shed), s.mem_used_bytes,
        s.mem_limit_bytes, static_cast<unsigned long long>(s.mem_denials),
        static_cast<unsigned long long>(s.mem_reclaim_runs),
        static_cast<unsigned long long>(s.mem_reclaimed_bytes),
        static_cast<unsigned long long>(s.idem_replays),
        static_cast<unsigned long long>(s.tasks_stuck), s.memo_bytes,
        s.id_cache_bytes, s.interner_bytes);
  }

  std::fprintf(stderr, "shutting down: draining + checkpointing...\n");
  server.Shutdown();
  const Server::Stats stats = server.stats();
  std::fprintf(stderr,
               "done: opened=%llu resumed=%llu degraded=%llu executed=%llu "
               "shed_requests=%llu shed_conns=%llu expired=%llu "
               "dropped=%llu\n",
               static_cast<unsigned long long>(stats.sessions_opened),
               static_cast<unsigned long long>(stats.sessions_resumed),
               static_cast<unsigned long long>(stats.sessions_degraded),
               static_cast<unsigned long long>(stats.requests_executed),
               static_cast<unsigned long long>(stats.requests_shed),
               static_cast<unsigned long long>(stats.connections_shed),
               static_cast<unsigned long long>(stats.requests_expired),
               static_cast<unsigned long long>(stats.requests_dropped));
  if (args.server.mem_budget_bytes > 0 ||
      args.server.session_quota_bytes > 0) {
    std::fprintf(stderr,
                 "governor: denials=%llu reclaims=%llu reclaimed=%llu "
                 "replays=%llu stuck=%llu\n",
                 static_cast<unsigned long long>(stats.mem_denials),
                 static_cast<unsigned long long>(stats.mem_reclaim_runs),
                 static_cast<unsigned long long>(stats.mem_reclaimed_bytes),
                 static_cast<unsigned long long>(stats.idem_replays),
                 static_cast<unsigned long long>(stats.tasks_stuck));
  }
  return 0;
}
