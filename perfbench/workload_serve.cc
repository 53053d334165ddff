// serve_explore: the emdbg_serve binary (2 workers) driven by one client
// over one connection, both on one CPU. The client runs analyst episodes
// back to back: open a session, add the starting rule and run it, add the
// explore rules one by one in a seeded order (each on a feature the session
// has not computed yet, so every ack waits for the incremental engine to
// compute that feature for the pairs the function does not match yet),
// read the digest and close. One op = one request, from send until its
// response is read. The sessions are not durable; traced runs add a durable
// session (one journal fsync per acknowledged edit, a checkpoint every 16
// edits) after the loop.

#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/core/debug_session.h"
#include "src/core/memo_matcher.h"
#include "src/core/pair_context.h"
#include "src/core/rule_parser.h"
#include "src/serve/client.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace perfbench {

using namespace emdbg;

namespace {

constexpr int kWorkers = 2;
constexpr int kCheckpointEvery = 16;
constexpr int kSetups = 21;

size_t ParseMatches(const std::string& body) {
  const size_t at = body.rfind("matches=");
  return at == std::string::npos
             ? 0
             : std::strtoull(body.c_str() + at + 8, nullptr, 10);
}

/// One episode as the client saw it: the order it added the explore rules
/// in (indices into ServeRules, 1-based), the match count of each ack (the
/// run's first) and the final digest.
struct Episode {
  std::vector<size_t> order;
  std::vector<size_t> acks;
  std::string digest;
};

/// The load generator: one client over one connection. With two clients
/// computing at once, the host's slow phases moved `op_p50_ms` over twice
/// the range (README.md).
struct Client {
  ServeClient conn;
  std::vector<std::string> rules = ServeRules();
  Rng rng{1};
  std::vector<Episode> episodes;
  // Results of the timed phase.
  std::vector<double> lat;  // every op
  std::vector<double> run_ms, ack_ms, read_ms, ping_ms, ack_durable_ms,
      checkpoint_ms;
  size_t attempted = 0, failed = 0;
  std::vector<double> traced_ms, untraced_ms;
  std::string error;
  std::unique_ptr<Tracer> tracer;

  /// One request; a timed one is an op of the timed phase. Returns false
  /// (and records the error) on a failure.
  bool Call(const std::string& cmd, const char* span, uint64_t op,
            bool traced, std::vector<double>* cls, std::string* body,
            bool timed = true) {
    const int64_t t0 = NowNs();
    Result<std::string> r = [&] {
      ScopedSpan s(traced ? tracer.get() : nullptr, span, op);
      return conn.Call(cmd);
    }();
    const double ms = (NowNs() - t0) / 1e6;
    if (timed) {
      ++attempted;
      lat.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
    if (cls != nullptr) cls->push_back(ms);
    if (!r.ok() || r->rfind("err ", 0) == 0) {
      failed += timed;
      if (error.empty()) {
        error = cmd + " -> " + (r.ok() ? *r : r.status().ToString());
      }
      return false;
    }
    *body = std::move(*r);
    return true;
  }

  /// Opens a session and runs it with the starting rule.
  bool Start(const std::string& token, uint64_t op, bool traced,
             std::string* body, bool timed = true) {
    return Call("open token=" + token, "serve.open", op, traced, nullptr, body,
                timed) &&
           Call("add_rule " + rules[0], "serve.add_rule", op, traced, nullptr,
                body, timed) &&
           Call("run", "serve.run", op, traced, timed ? &run_ms : nullptr,
                body, timed);
  }

  /// The closed loop: one episode after another until the deadline.
  /// Traced runs alternate traced and untraced episodes.
  void Loop(int64_t deadline, bool trace_mode) {
    std::string body;
    for (size_t e = 0; NowNs() < deadline; ++e) {
      const bool traced = trace_mode && e % 2 == 1;
      const uint64_t op = e;
      Episode ep;
      ep.order.resize(rules.size() - 1);
      std::iota(ep.order.begin(), ep.order.end(), size_t{1});
      for (size_t i = ep.order.size(); i > 1; --i) {
        std::swap(ep.order[i - 1], ep.order[rng.Uniform(i)]);
      }
      if (!Start(StrFormat("e%zu", e), op, traced, &body)) return;
      ep.acks.push_back(ParseMatches(body));
      for (const size_t r : ep.order) {
        if (!Call("add_rule " + rules[r], "serve.add_rule", op, traced,
                  &ack_ms, &body)) {
          return;
        }
        ep.acks.push_back(ParseMatches(body));
      }
      if (!Call("digest", "serve.digest", op, traced, &read_ms, &body)) {
        return;
      }
      const size_t at = body.find("digest=");
      ep.digest = at == std::string::npos ? "" : body.substr(at + 7, 8);
      if (!Call("close", "serve.close", op, traced, nullptr, &body)) return;
      episodes.push_back(std::move(ep));
    }
  }

  /// Traced runs only, after the timed loop: `ping` (answered on the poll
  /// thread: the wire alone), then a durable session: edits acknowledged
  /// after the journal fsync (a checkpoint every 16) and the explicit
  /// `checkpoint` verb. Kept out of the timed loop (README.md, noise
  /// fact 3).
  void ProbeTraced(size_t pings, size_t edits) {
    std::string body;
    const uint64_t op = 0xffffffffu;
    for (size_t i = 0; i < pings; ++i) {
      Call("ping", "serve.ping", op, true, &ping_ms, &body, false);
    }
    if (!Call("open durable token=durable", "serve.open", op, true, nullptr,
              &body, false) ||
        !Call("add_rule " + rules[1], "serve.add_rule", op, true, nullptr,
              &body, false) ||
        !Call("run", "serve.run", op, true, nullptr, &body, false)) {
      return;
    }
    for (size_t i = 0; i < edits; ++i) {
      Call(StrFormat("set_threshold 0 0 %s", i % 2 == 0 ? "0.85" : "0.8"),
           "serve.set_threshold_durable", op, true, &ack_durable_ms, &body,
           false);
      if (i % 8 == 7) {
        Call("checkpoint", "serve.checkpoint", op, true, &checkpoint_ms,
             &body, false);
      }
    }
    Call("close", "serve.close", op, true, nullptr, &body, false);
  }
};

/// What every episode must see, from the serial MemoMatcher (Alg. 4) as
/// the oracle. A function is the OR of its rules, so the matches after any
/// set of added rules are the union of those rules' matches, whatever the
/// order: every ack of every episode can be checked.
struct Expected {
  std::vector<Bitmap> rule_matches;  // per ServeRules index
  std::string final_digest;          // the digest after every rule
};

Expected Expect(const std::vector<std::string>& rules, const Corpus& corpus,
                bool corrupt, Report& report) {
  Expected out;
  FeatureCatalog catalog(corpus.a.schema(), corpus.b.schema());
  std::vector<MatchingFunction> fns;
  for (const std::string& r : rules) {
    Result<MatchingFunction> fn = ParseMatchingFunction(r, catalog);
    if (!fn.ok()) {
      report.Fail("oracle: bad rule " + r);
      return out;
    }
    fns.push_back(std::move(*fn));
  }
  Result<MatchingFunction> whole =
      ParseMatchingFunction(Join(rules, "\n"), catalog);
  if (!whole.ok()) {
    report.Fail("oracle: bad rule set");
    return out;
  }
  PairContext ctx(corpus.a, corpus.b, catalog);
  Bitmap all(corpus.pairs.size());
  std::vector<std::string> lines;
  for (const MatchingFunction& fn : fns) {
    out.rule_matches.push_back(
        MemoMatcher().Run(fn, corpus.pairs, ctx).matches);
    all |= out.rule_matches.back();
    lines.push_back(RuleToDsl(fn.rules()[0], catalog));
  }
  if (!(MemoMatcher().Run(*whole, corpus.pairs, ctx).matches == all)) {
    report.Fail("oracle: the union of the rules' matches differs from the "
                "whole function's");
  }
  if (all.Count() == 0 || all.Count() == corpus.pairs.size()) {
    report.Fail(StrFormat("the oracle matches %zu of %zu pairs; the rule set "
                          "must match some pairs but not all",
                          all.Count(), corpus.pairs.size()));
  }
  // The server's digest is CRC-32C over its sorted rule DSL lines chained
  // with the match-bitmap words (src/serve/session_digest.cc).
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  std::vector<uint64_t> words = all.words();
  if (corrupt && !words.empty()) words[0] ^= 1;
  out.final_digest = StrFormat(
      "%08x", Crc32cExtend(Crc32c(text), words.data(),
                           words.size() * sizeof(uint64_t)));
  return out;
}

/// Checks every ack and the final digest of every episode.
void CheckEpisodes(const Client& c, const Expected& want, Report& report) {
  if (want.rule_matches.size() != c.rules.size()) return;  // oracle failed
  if (c.episodes.empty()) report.Fail("the client finished no episode");
  for (size_t e = 0; e < c.episodes.size(); ++e) {
    const Episode& ep = c.episodes[e];
    Bitmap cur = want.rule_matches[0];
    bool ok = ep.acks.size() == ep.order.size() + 1 &&
              ep.acks[0] == cur.Count();
    for (size_t k = 0; ok && k < ep.order.size(); ++k) {
      cur |= want.rule_matches[ep.order[k]];
      ok = ep.acks[k + 1] == cur.Count();
    }
    if (!ok) {
      report.Fail(StrFormat(
          "episode %zu: an ack's match count differs from the oracle", e));
      return;
    }
    if (ep.digest != want.final_digest) {
      report.Fail(StrFormat("episode %zu: final digest %s != oracle %s", e,
                            ep.digest.c_str(), want.final_digest.c_str()));
      return;
    }
  }
}

/// Traced runs: the first episode replayed on an in-process DebugSession,
/// one span per edit (the core.incremental layer); its acks must equal the
/// server's.
void ReplayEpisode(const Client& c, const Corpus& corpus, Tracer& tracer,
                   std::vector<double>* edit_ms, Report& report) {
  if (c.episodes.empty()) return;
  const Episode& ep = c.episodes[0];
  DebugSession s(std::make_shared<const Table>(corpus.a),
                 std::make_shared<const Table>(corpus.b),
                 std::make_shared<const CandidateSet>(corpus.pairs),
                 DebugSession::Options{});
  std::vector<size_t> acks;
  if (!s.AddRuleText(c.rules[0]).ok()) {
    report.Fail("replay: bad starting rule");
    return;
  }
  {
    ScopedSpan span(&tracer, "core.run", 0);
    acks.push_back(s.Run().Count());
  }
  for (size_t k = 0; k < ep.order.size(); ++k) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(&tracer, "core.edit.add_rule", k + 1);
      if (!s.AddRuleText(c.rules[ep.order[k]]).ok()) {
        report.Fail("replay: bad rule " + c.rules[ep.order[k]]);
        return;
      }
      acks.push_back(s.Run().Count());
    }
    edit_ms->push_back((NowNs() - t0) / 1e6);
  }
  if (acks != ep.acks) {
    report.Fail("the in-process replay of episode 0 differs from the "
                "server's acks");
  }
}

/// Runs this process, and the servers it spawns, on the last CPU it may
/// use; returns that CPU, or -1 when the affinity could not be set. On one
/// CPU a request and its response pass between threads without waking an
/// idle vCPU, whose wake-up waits for the host's scheduler, and a session's
/// data stays in one core's L2. In runs alternated on the same host,
/// `op_p50_ms` was 3.8-4.1 ms this way, 4.2-4.8 ms with the client on the
/// other CPUs and 4.7-5.1 ms unpinned (README.md, noise fact 1).
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string FsName(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
  }
  return StrFormat("0x%lx", static_cast<unsigned long>(fs.f_type));
}

}  // namespace

int RunServeExplore(const Args& args) {
  Report report(args);
  Tracer tracer(args.trace);
  const InputPaths paths(args.dir);
  const double scale = CorpusScale("serve_explore", args.tiny);
  Client client;
  client.rng = Rng(args.seed * 1000003);
  client.tracer = std::make_unique<Tracer>(args.trace, 1);
  std::string body;

  // Set-up: spawn until `listening`, plus the client's session opened and
  // run with the starting rule. Repeated kSetups times (the last server
  // stays up for the timed phase); setup_s is the median.
  const int cpu = PinToOneCpu();
  std::vector<double> setups;
  std::unique_ptr<Child> server;
  std::string journals;
  for (int k = 0; k < kSetups; ++k) {
    if (server != nullptr) {
      client.conn.Close();
      server->Stop();
      RemoveTree(journals);
    }
    journals = StrFormat("%s/journals%d", args.dir.c_str(), k);
    MakeDirs(journals);
    const int64_t t0 = NowNs();
    server = std::make_unique<Child>(
        std::vector<std::string>{
            args.bin, "--dataset=products", StrFormat("--scale=%g", scale),
            StrFormat("--seed=%llu",
                      static_cast<unsigned long long>(
                          CorpusSeed("serve_explore", args.seed))),
            "--port=0", StrFormat("--workers=%d", kWorkers),
            StrFormat("--checkpoint-every=%d", kCheckpointEvery),
            "--durability-root=" + journals},
        args.dir + "/server.log");
    std::string line;
    int port = 0;
    while (port == 0 && server->ReadLine(&line)) {
      const size_t at = line.find("port=");
      if (line.rfind("listening", 0) == 0 && at != std::string::npos) {
        port = std::atoi(line.c_str() + at + 5);
      }
    }
    if (port == 0) {
      report.Fail("server did not start (see server.log)");
      return report.Finish(1, 1);
    }
    Result<ServeClient> conn =
        ServeClient::Connect("127.0.0.1", static_cast<uint16_t>(port));
    const bool ok = conn.ok() && (client.conn = std::move(*conn),
                                  client.Start("setup", 0, false, &body,
                                               false));
    setups.push_back((NowNs() - t0) / 1e9);
    if (!ok) {
      report.Fail("set-up: " + (conn.ok() ? client.error
                                          : conn.status().ToString()));
      server->Stop();
      return report.Finish(1, 1);
    }
  }
  client.Call("close", "serve.close", 0, false, nullptr, &body, false);

  // Timed phase.
  const int64_t start = NowNs();
  client.Loop(start + static_cast<int64_t>(args.seconds * 1e9), args.trace);
  const double wall_s = (NowNs() - start) / 1e9;
  if (args.trace) client.ProbeTraced(500, 160);

  // Server counters and memory (sessions are closed, so the peak is the
  // timed phase's), then drain.
  std::string stats_body;
  if (Result<std::string> st = client.conn.Call("stats"); st.ok()) {
    stats_body = *st;
  }
  const double peak_mb = PeakRssMb(server->pid());
  client.conn.Close();
  const int exit_code = server->Stop();
  if (exit_code != 0) {
    report.Fail(StrFormat("server exited with %d after SIGTERM", exit_code));
  }
  RemoveTree(journals);
  if (!client.error.empty()) report.Fail("client: " + client.error);
  tracer.Append(*client.tracer);

  // Correctness: every ack and final digest against the oracle.
  Corpus corpus;
  if (Status s = LoadCorpus(paths, nullptr, &corpus); !s.ok()) {
    report.Fail("oracle corpus: " + s.ToString());
    return report.Finish(client.attempted, client.failed);
  }
  CheckEpisodes(client,
                Expect(client.rules, corpus, args.corrupt_expected, report),
                report);

  auto stat = [&](const char* key) {
    const size_t at = stats_body.find(std::string(" ") + key + "=");
    return at == std::string::npos
               ? 0.0
               : std::strtod(stats_body.c_str() + at + std::strlen(key) + 2,
                             nullptr);
  };
  report.Attribution("episodes", static_cast<double>(client.episodes.size()));
  report.Attribution("server.executed", stat("executed"));
  report.Attribution("server.shed_requests", stat("shed_requests"));
  report.Attribution("final_digest", client.episodes.empty()
                                         ? "none"
                                         : client.episodes[0].digest);

  report.Provenance("rows_a", corpus.a.num_rows());
  report.Provenance("rows_b", corpus.b.num_rows());
  report.Provenance("pairs", corpus.pairs.size());
  report.Provenance("rules", client.rules.size());
  // A session's dense memo once every rule's feature is in it.
  report.Provenance("memo_mb", static_cast<double>(corpus.pairs.size()) *
                                   client.rules.size() * sizeof(float) /
                                   1048576.0);
  report.Provenance("client_threads", 1);
  report.Provenance("worker_threads", kWorkers);
  report.Provenance("cpu", cpu >= 0 ? StrFormat("%d", cpu) : "unpinned");
  report.Provenance("flush_policy",
                    StrFormat("timed loop: sessions not durable; traced "
                              "probe: fsync per acknowledged edit, "
                              "checkpoint every %d edits",
                              kCheckpointEvery));
  report.Provenance("journal_fs", FsName(args.dir));
  report.Provenance("ops", static_cast<double>(client.lat.size()));

  if (!args.trace) {
    report.EndToEnd(setups, client.lat, wall_s, peak_mb);
  } else {
    std::vector<double> edit_ms;
    ReplayEpisode(client, corpus, tracer, &edit_ms, report);
    ReplayStages(args, nullptr, tracer, report);
    report.Extra("serve.ping_ms", Median(client.ping_ms), "ms");
    report.Extra("serve.run_ms", Median(client.run_ms), "ms");
    report.Extra("serve.read_ms", Median(client.read_ms), "ms");
    report.Extra("serve.ack_ms", Median(client.ack_ms), "ms");
    report.Extra("serve.ack_durable_ms", Median(client.ack_durable_ms), "ms");
    report.Extra("serve.checkpoint_ms", Median(client.checkpoint_ms), "ms");
    for (const char* key :
         {"executed", "shed_requests", "expired", "dropped", "mem_denials"}) {
      report.Extra(std::string("serve.") + key, stat(key), "count");
    }
    report.Extra("core.edit.add_rule.p50_ms", Median(edit_ms), "ms");
    report.Extra("core.edit.add_rule.count",
                 static_cast<double>(edit_ms.size()), "count");
    report.TraceSummary(tracer, client.traced_ms, client.untraced_ms);
  }
  return report.Finish(client.attempted, client.failed);
}

}  // namespace perfbench
