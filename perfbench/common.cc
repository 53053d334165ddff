#include "perfbench/common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Tail latency of a run: the p95 when at least ten samples lie beyond it,
/// else the median (README.md, "op_tail_ms"). Writes the percentile used to
/// `*pct`.
double TailLatency(const std::vector<double>& v, int* pct) {
  const size_t at = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(v.size())));
  *pct = v.size() >= at + 10 ? 95 : 50;
  return *pct == 95 ? Percentile(v, 0.95) : Median(v);
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Report

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Object(const std::vector<std::pair<std::string, std::string>>& kv,
                   const std::string& prefix) {
  std::string out = "{" + prefix;
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + v;
  }
  return out + "}";
}

}  // namespace

Report::Report(const Args& args) : args_(args) {
  Provenance("workload", args.command);
  Provenance("seed", static_cast<double>(args.seed));
  Provenance("seconds", args.seconds);
  Provenance("trace", args.trace ? 1.0 : 0.0);
  Provenance("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Provenance("compiler", PERFBENCH_COMPILER);
  Provenance("build_type", PERFBENCH_BUILD_TYPE);
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Provenance(const std::string& key, const std::string& value) {
  provenance_.emplace_back(key, Quote(value));
}
void Report::Provenance(const std::string& key, double value) {
  provenance_.emplace_back(key, Num(value));
}
void Report::Attribution(const std::string& key, const std::string& value) {
  attribution_.emplace_back(key, Quote(value));
}
void Report::Attribution(const std::string& key, double value) {
  attribution_.emplace_back(key, Num(value));
}

void Report::Extra(const std::string& name, double value, const char* unit) {
  extras_.push_back(Entry{name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::EndToEnd(const std::vector<double>& setups_s,
                      const std::vector<double>& op_ms, double wall_s,
                      double peak_rss_mb) {
  int pct = 0;
  Metric("setup_s", Median(setups_s), "s");
  Metric("op_p50_ms", Median(op_ms), "ms");
  Metric("op_tail_ms", TailLatency(op_ms, &pct), "ms");
  Metric("ops_per_s", static_cast<double>(op_ms.size()) / wall_s, "1/s");
  Metric("peak_rss_mb", peak_rss_mb, "MB");
  Provenance("op_tail_percentile", pct);
  Attribution("setup_s.samples", static_cast<double>(setups_s.size()));
  if (!setups_s.empty()) {
    Attribution("setup_s.min",
                *std::min_element(setups_s.begin(), setups_s.end()));
    Attribution("setup_s.max",
                *std::max_element(setups_s.begin(), setups_s.end()));
  }
}

void Report::TraceSummary(const Tracer& tracer,
                          const std::vector<double>& traced_ms,
                          const std::vector<double>& untraced_ms) {
  // Medians: a span costs every op the same, while a mean would follow the
  // few heaviest ops (the first use of a feature) into whichever window
  // they fell.
  const double base = Median(untraced_ms);
  Metric("trace.overhead_pct",
         traced_ms.empty() || base == 0
             ? 0
             : 100.0 * (Median(traced_ms) / base - 1),
         "%");
  for (const auto& [name, agg] : tracer.Aggregate()) {
    double total = 0;
    for (const double t : agg.total_ms) total += t;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  span %-28s n=%-6zu total=%10.2f ms  p50=%9.4f ms  "
                  "self_p50=%9.4f ms",
                  name.c_str(), agg.total_ms.size(), total,
                  Median(agg.total_ms), Median(agg.self_ms));
    span_lines_.push_back(buf);
  }
  const std::string bad = tracer.Validate();
  if (!bad.empty()) Fail("trace: " + bad);
  if (!args_.spans_out.empty() && !tracer.WriteJsonl(args_.spans_out)) {
    Fail("cannot write " + args_.spans_out);
  }
}

int Report::Finish(size_t attempted, size_t failed) {
  std::printf("provenance %s\n",
              Object(provenance_, args_.provenance).c_str());
  std::printf("attribution %s\n", Object(attribution_, "").c_str());
  if (args_.trace) {
    std::printf("per-layer report (%s, traced):\n", args_.command.c_str());
    for (const Entry& e : metrics_) {
      std::printf("  %-40s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
    std::printf("workload-specific per-layer metrics:\n");
    for (const Entry& e : extras_) {
      std::printf("  %-40s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
    for (const std::string& line : span_lines_) {
      std::printf("%s\n", line.c_str());
    }
  }
  for (const std::string& f : failures_) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::string m = "{";
  for (const Entry& e : metrics_) {
    if (m.size() > 1) m += ", ";
    m += Quote(e.name) + ": {\"value\": " + Num(e.value) +
         ", \"unit\": " + Quote(e.unit) + "}";
  }
  m += "}";
  attempted = std::max<size_t>(attempted, 1);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              ok() ? "true" : "false", attempted, failed, m.c_str());
  std::fflush(stdout);
  return ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Child processes

namespace {

std::vector<char*> Argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

/// Spawns `argv` with stdout on a new pipe (returned in *out_fd) and
/// stderr on `stderr_path`.
int Spawn(const std::vector<std::string>& argv,
          const std::string& stderr_path, int* out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  std::vector<char*> args = Argv(argv);
  const int rc =
      posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return -1;
  }
  *out_fd = fds[0];
  return pid;
}

}  // namespace

ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::string& stderr_path) {
  ChildResult r;
  const int64_t t0 = NowNs();
  int fd = -1;
  const int pid = Spawn(argv, stderr_path, &fd);
  if (pid < 0) return r;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    r.out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_ms = (NowNs() - t0) / 1e6;
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return r;
}

Child::Child(const std::vector<std::string>& argv,
             const std::string& stderr_path) {
  pid_ = Spawn(argv, stderr_path, &out_fd_);
}

Child::~Child() { Stop(2000); }

bool Child::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[1024];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

int Child::Stop(int grace_ms) {
  if (pid_ < 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  int waited_ms = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (waited_ms >= grace_ms) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    waited_ms += 5;
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

std::string SelfExe() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

}  // namespace perfbench
