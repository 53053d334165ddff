#ifndef EMDBG_UTIL_CANCELLATION_H_
#define EMDBG_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/util/status.h"

namespace emdbg {

/// Cooperative cancellation & deadlines for long matching runs.
///
/// The paper's premise is interactivity: an analyst edits a rule and
/// expects feedback in seconds. A mistyped threshold can make a predicate
/// pathologically expensive, so every matcher accepts a `RunControl` and
/// checks it once per candidate pair (once per block of pairs in the
/// block engine). A run that is cancelled or exceeds
/// its deadline stops cleanly and returns a *partial* `MatchResult` — the
/// pairs completed so far plus a `Status` explaining why — instead of
/// freezing the session.
///
/// Typical use:
///
///   CancellationToken token;                 // shared with a ^C handler
///   RunControl control(token, Deadline::AfterMillis(500));
///   MatchResult r = matcher.Run(fn, pairs, ctx, control);
///   if (r.partial) { /* r.evaluated marks the valid prefix */ }

/// A shared, thread-safe cancel flag. Copies refer to the same flag.
/// `RequestCancel` is async-signal-safe (a relaxed atomic store), so a
/// SIGINT handler may trip it directly — see `SigintCancellation`.
class CancellationToken {
 public:
  CancellationToken()
      : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  void Reset() const noexcept {
    flag_->store(false, std::memory_order_relaxed);
  }
  bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

  /// The raw flag, for installing in a signal handler.
  std::atomic<bool>* flag() const noexcept { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// An optional wall-clock budget. Default-constructed = no deadline.
class Deadline {
 public:
  Deadline() = default;

  static Deadline AfterMillis(double ms) {
    Deadline d;
    d.has_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool has_deadline() const { return has_; }
  bool expired() const { return has_ && Clock::now() >= at_; }

  /// Milliseconds until expiry; negative if already expired, +inf if none.
  double remaining_millis() const;

 private:
  using Clock = std::chrono::steady_clock;
  bool has_ = false;
  Clock::time_point at_{};
};

/// What every matcher consumes: an optional cancellation token plus an
/// optional deadline. Default-constructed = run to completion.
class RunControl {
 public:
  RunControl() = default;
  explicit RunControl(CancellationToken token)
      : token_(std::move(token)), has_token_(true) {}
  explicit RunControl(Deadline deadline) : deadline_(deadline) {}
  RunControl(CancellationToken token, Deadline deadline)
      : token_(std::move(token)), has_token_(true), deadline_(deadline) {}

  /// True if this control can ever stop a run (token or deadline set).
  bool can_stop() const { return has_token_ || deadline_.has_deadline(); }

  bool cancelled() const { return has_token_ && token_.cancelled(); }
  bool deadline_expired() const { return deadline_.expired(); }
  const Deadline& deadline() const { return deadline_; }

  /// Why a run stopped: Cancelled beats DeadlineExceeded; OK if neither.
  Status StopStatus() const;

 private:
  CancellationToken token_;
  bool has_token_ = false;
  Deadline deadline_;
};

/// Per-thread checkpoint helper. The token is loaded on every call (one
/// relaxed atomic load); the deadline clock is sampled every
/// `deadline_stride` calls to keep the steady_clock overhead off the
/// per-pair path. Once tripped it stays tripped.
class StopCheck {
 public:
  explicit StopCheck(const RunControl& control,
                     uint32_t deadline_stride = 32)
      : control_(control),
        armed_(control.can_stop()),
        stride_(deadline_stride == 0 ? 1 : deadline_stride) {}

  /// Call once per unit of work (candidate pair). True = stop now.
  bool ShouldStop() {
    if (!armed_) return false;
    if (tripped_) return true;
    if (control_.cancelled()) {
      tripped_ = true;
      return true;
    }
    if (count_++ % stride_ == 0 && control_.deadline_expired()) {
      tripped_ = true;
      return true;
    }
    return false;
  }

  bool tripped() const { return tripped_; }

  /// The stop reason (valid once tripped; OK otherwise).
  Status Reason() const { return control_.StopStatus(); }

 private:
  const RunControl& control_;
  bool armed_;
  bool tripped_ = false;
  uint32_t stride_;
  uint32_t count_ = 0;
};

/// RAII SIGINT→token bridge for interactive tools: while alive, Ctrl-C
/// trips `token` (first press cancels the current run; the process stays
/// alive). The previous handler is restored on destruction. Only one
/// instance may be alive per process.
class SigintCancellation {
 public:
  explicit SigintCancellation(CancellationToken token);
  ~SigintCancellation();

  SigintCancellation(const SigintCancellation&) = delete;
  SigintCancellation& operator=(const SigintCancellation&) = delete;

 private:
  CancellationToken token_;  // keeps the flag alive for the handler
};

/// RAII bridge from the process-termination signals to a token, for tools
/// that must drain instead of dying mid-write: SIGINT, SIGTERM, and
/// SIGHUP all trip `token` (cancelling any in-flight run); SIGTERM/SIGHUP
/// additionally latch `exit_requested`, so the tool's main loop can
/// distinguish "cancel the current run, keep the session" (Ctrl-C) from
/// "checkpoint durable state and exit" (service shutdown semantics).
///
/// SIGINT is installed with SA_RESTART (an interactive prompt read
/// resumes); SIGTERM/SIGHUP are installed *without* it, so a blocking
/// stdin read fails with EINTR and the main loop gets to run its drain
/// path promptly. Only one instance (of this or SigintCancellation) may
/// be alive per process.
class ShutdownSignals {
 public:
  explicit ShutdownSignals(CancellationToken token);
  ~ShutdownSignals();

  ShutdownSignals(const ShutdownSignals&) = delete;
  ShutdownSignals& operator=(const ShutdownSignals&) = delete;

  /// True once SIGTERM or SIGHUP has been received.
  bool exit_requested() const noexcept;

 private:
  CancellationToken token_;  // keeps the flag alive for the handler
};

}  // namespace emdbg

#endif  // EMDBG_UTIL_CANCELLATION_H_
