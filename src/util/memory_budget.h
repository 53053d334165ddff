#ifndef EMDBG_UTIL_MEMORY_BUDGET_H_
#define EMDBG_UTIL_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace emdbg {

/// Hierarchical memory accountant: the resource-governance backbone (see
/// DESIGN.md, "Resource governance & overload behavior").
///
/// A root budget caps the whole process (or server); child budgets cap one
/// tenant each (per-session quotas). Every large consumer — DenseMemo
/// allocations via MatchState, PairContext id caches, per-worker block
/// scratch — calls Reserve() *before* allocating
/// and Release() when the bytes are freed, so the first sign of pressure
/// is a clean ResourceExhausted Status instead of the OOM killer.
///
/// Graceful degradation: a budget keeps a registry of *reclaimable*
/// consumers — caches whose loss costs time, never correctness (the
/// server registers idle sessions' interned-id columns). When a reservation
/// does not fit, Reserve() runs reclaimers in eviction order (lowest
/// priority class first; least-recently-touched first within a class)
/// until the request fits or nothing more can be freed. Only then does it
/// deny.
///
/// Thread-safety: Reserve/Release/used/stats are lock-free atomics on the
/// hot path; the reclaimer registry is mutex-protected and only locked
/// when a reservation actually overflows. Reclaim callbacks run with the
/// registry lock held: they must not add or remove reclaimers, but
/// calling Release() from inside one is fine (and expected).
///
/// Fault injection: the "mem.reserve" site makes any reservation deny
/// without consulting limits or reclaimers — the allocation-failure
/// drill for the robustness matrix.
class MemoryBudget {
 public:
  /// Eviction order for reclaimer registration: lower classes are evicted
  /// first (cheapest to rebuild → most expensive). No consumer registers
  /// class 1 today.
  static constexpr int kReclaimIdCaches = 0;    // rebuildable from text
  static constexpr int kReclaimMemoShards = 1;  // recomputable similarities

  /// Root budget. `limit_bytes` 0 = unlimited (pure accounting).
  explicit MemoryBudget(size_t limit_bytes = 0,
                        std::string name = "global");

  /// Child budget (per-session quota): reservations must fit the child's
  /// own limit *and* charge the parent (which may reclaim/deny in turn).
  /// The parent must outlive the child, and the child must be drained
  /// (all consumers released) before it is destroyed.
  MemoryBudget(MemoryBudget* parent, size_t limit_bytes, std::string name);

  ~MemoryBudget();

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes`, reclaiming registered caches if needed.
  /// ResourceExhausted when the bytes cannot be found at this level or any
  /// ancestor. Reserving 0 bytes always succeeds. `consumer` names the
  /// reservation site ("state.memo", "ctx.cache", ...) for the denial log
  /// — when a reservation is denied (budget pressure or an injected
  /// mem.reserve fault), the site lands in DeniedConsumers(), so tests
  /// and operators can see *which* degradation path a failure exercised.
  Status Reserve(size_t bytes, std::string_view consumer = {});

  /// Reserve without ever running reclaimers (at this level or any
  /// ancestor). The only variant safe to call from *inside* a reclaim
  /// callback — the registry mutex is held there, so a reclaiming
  /// Reserve would self-deadlock. Also skips the mem.reserve fault site
  /// (it is billing true-up, not new allocation).
  Status TryReserve(size_t bytes, std::string_view consumer = {});

  /// Returns the reserved bytes. Must match a prior successful Reserve
  /// (releasing more than reserved is clamped, never underflows).
  void Release(size_t bytes);

  size_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Bytes still reservable at this level (SIZE_MAX when unlimited;
  /// ancestors may still be tighter).
  size_t remaining() const;
  const std::string& name() const { return name_; }
  MemoryBudget* parent() const { return parent_; }

  struct Stats {
    uint64_t reserves = 0;
    uint64_t denials = 0;
    uint64_t reclaim_runs = 0;
    uint64_t reclaimed_bytes = 0;
  };
  Stats stats() const;

  /// The most recent denied reservations, oldest first, formatted as
  /// "consumer(bytes)" — capped at the last 32. Diagnosing aid: a
  /// digest-divergence under injected mem.reserve faults names the
  /// reservation site whose degradation path misbehaved.
  std::vector<std::string> DeniedConsumers() const;

  /// Registers a reclaimable consumer. `fn(want_bytes)` should drop up to
  /// `want_bytes` of cache (calling Release for what it frees) and return
  /// the bytes actually freed. Returns a handle for RemoveReclaimer /
  /// Touch. Each budget runs only its own registry — register
  /// cross-tenant caches on the shared root, tenant-private caches on
  /// that tenant's quota.
  uint64_t AddReclaimer(int priority, std::string name,
                        std::function<size_t(size_t)> fn);
  void RemoveReclaimer(uint64_t id);

  /// Marks the consumer recently used; reclaim prefers the coldest
  /// (least-recently-touched) consumer within a priority class.
  void Touch(uint64_t id);

 private:
  /// Atomically charges bytes against the local limit; false if it would
  /// overflow the limit.
  bool ChargeLocal(size_t bytes);
  void UnchargeLocal(size_t bytes);
  /// Runs reclaimers (coldest first in eviction order) until at least
  /// `want` bytes fit locally or every reclaimer has been tried. Returns
  /// total bytes reported freed.
  size_t RunReclaimers(size_t want);

  struct Reclaimer {
    uint64_t id;
    int priority;
    uint64_t last_touch;
    std::string name;
    std::function<size_t(size_t)> fn;
  };

  MemoryBudget* const parent_ = nullptr;
  const size_t limit_;
  const std::string name_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> reserves_{0};
  std::atomic<uint64_t> denials_{0};
  std::atomic<uint64_t> reclaim_runs_{0};
  std::atomic<uint64_t> reclaimed_bytes_{0};

  /// Appends `consumer` to the capped denial log (both Reserve variants,
  /// every denial path — local, ancestor, injected).
  void RecordDenial(std::string_view consumer, size_t bytes);

  std::mutex reclaim_mu_;
  std::vector<Reclaimer> reclaimers_;
  uint64_t next_reclaimer_id_ = 1;
  std::atomic<uint64_t> touch_clock_{1};

  mutable std::mutex denial_mu_;
  std::vector<std::string> denied_consumers_;
};

/// RAII reservation: releases on destruction. Movable, not copyable.
/// A default-constructed (or budget-less) reservation is a no-op, so
/// budget-optional code paths stay branch-free at release time.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}
  ~MemoryReservation() { reset(); }

  MemoryReservation(MemoryReservation&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      reset();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Reserves `bytes` from `budget` (null budget = always succeeds,
  /// tracks nothing). `consumer` feeds the budget's denial log.
  static Result<MemoryReservation> Make(MemoryBudget* budget, size_t bytes,
                                        std::string_view consumer = {});

  size_t bytes() const { return bytes_; }
  void reset() {
    if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace emdbg

#endif  // EMDBG_UTIL_MEMORY_BUDGET_H_
