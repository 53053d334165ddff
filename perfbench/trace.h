#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into the program's public functions, binaries
/// and wire protocol (never inside the program). One Tracer belongs to one
/// thread; traces of several threads are merged with Append().
///
/// A span's self time is its duration minus the part of its interval that
/// its child spans cover.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    ///< index of the parent span, -1 for a root
    uint64_t op;       ///< id of the op (request, edit, job) it serves
    int thread;
  };

  explicit Tracer(bool enabled, int thread = 0)
      : enabled_(enabled), thread_(thread) {}

  /// Opens a span (child of the innermost open span); returns its index,
  /// or -1 when disabled.
  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);

  /// Moves `other`'s spans into this trace (indices re-based).
  void Append(const Tracer& other);

  /// Checks that every span lies inside its parent and has self time >= 0;
  /// returns a description of the first violation, or "".
  std::string Validate() const;

  /// Per span name: durations and self times in ms.
  struct Agg {
    std::vector<double> total_ms;
    std::vector<double> self_ms;
  };
  std::map<std::string, Agg> Aggregate() const;

  /// Writes one JSON object per span per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  /// Self time of every span, in ns, in recording order.
  std::vector<int64_t> SelfTimes() const;

  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
