#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

/// Command line of one driver invocation (see driver.cc for the syntax).
struct Args {
  std::string command;    ///< gen | edit_session | batch_match | serve_explore
  std::string dir;        ///< run directory holding the generated inputs
  std::string bin;        ///< program binary (emdbg_match / emdbg_serve)
  std::string spans_out;  ///< traced runs write their spans here
  std::string provenance; ///< JSON object fragment from the wrapper
  std::string workload;   ///< gen: which workload's inputs to write
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t replica = -1;           ///< edit_session replica: edits to replay
  bool tiny = false;              ///< smoke-test sizes
  bool corrupt_expected = false;  ///< smoke test: poison the oracle
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(int pid = 0);

uint64_t Fnv1a(std::string_view s);

/// Collects a run's metrics and side reports and prints them: the
/// provenance line, the work-attribution line, the per-layer report (traced
/// runs) and, last, the one-line JSON result.
class Report {
 public:
  /// Starts the provenance line with the build and host facts.
  explicit Report(const Args& args);

  void Metric(const std::string& name, double value, const char* unit);
  /// Key/value pairs of the "provenance" line (string values are quoted).
  void Provenance(const std::string& key, const std::string& value);
  void Provenance(const std::string& key, double value);
  /// Key/value pairs of the "attribution" line (work counters, order
  /// fingerprints).
  void Attribution(const std::string& key, const std::string& value);
  void Attribution(const std::string& key, double value);
  /// Workload-specific per-layer metric of a traced run: printed in the
  /// per-layer report, not part of the JSON result.
  void Extra(const std::string& name, double value, const char* unit);
  /// A failed correctness check; the run exits nonzero.
  void Fail(const std::string& what);

  /// The end-to-end metrics of an untraced run: set-up times (median),
  /// op latencies (median and tail), timed-phase wall time and peak RSS.
  void EndToEnd(const std::vector<double>& setups_s,
                const std::vector<double>& op_ms, double wall_s,
                double peak_rss_mb);

  /// Ends a traced run: `trace.overhead_pct` (median op time of the traced
  /// windows against the untraced ones), the span self-time table, the
  /// nesting check, and the spans file.
  void TraceSummary(const Tracer& tracer, const std::vector<double>& traced_ms,
                    const std::vector<double>& untraced_ms);

  bool ok() const { return failures_.empty(); }

  /// Prints everything; returns the process exit code.
  int Finish(size_t attempted, size_t failed);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const Args& args_;
  std::vector<Entry> metrics_;
  std::vector<Entry> extras_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<std::pair<std::string, std::string>> attribution_;
  std::vector<std::string> failures_;
  std::vector<std::string> span_lines_;
};

/// One child process with its standard output captured.
struct ChildResult {
  int exit_code = -1;
  double wall_ms = 0;
  double max_rss_mb = 0;
  std::string out;
};

/// Runs `argv` to completion (stdout captured, stderr to `stderr_path`).
ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::string& stderr_path);

/// A long-running child (the server) whose stdout is readable line by
/// line.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv,
                 const std::string& stderr_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  int pid() const { return pid_; }
  /// Reads one stdout line (blocks); false on EOF.
  bool ReadLine(std::string* line);
  /// SIGTERM, then waits (SIGKILL after `grace_ms`). Returns exit code.
  int Stop(int grace_ms = 20000);

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

/// Path of this process's executable.
std::string SelfExe();

/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
