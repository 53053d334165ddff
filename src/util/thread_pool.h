#ifndef EMDBG_UTIL_THREAD_POOL_H_
#define EMDBG_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/cancellation.h"
#include "src/util/status.h"

namespace emdbg {

/// Persistent, cancellation-aware work-stealing thread pool.
///
/// The paper's value proposition is sub-second re-matching inside the
/// analyst's edit loop, so the execution engine must not pay a thread
/// spawn per run and must not let one skewed partition dominate
/// wall-clock (early exit makes per-pair cost wildly uneven: matches stop
/// at the first true rule, non-matches evaluate every predicate). Workers
/// are created once and reused across runs; each `ParallelFor` partitions
/// the index range into per-worker spans drained through atomic
/// chunk-claiming cursors, and a worker whose span is exhausted steals
/// chunks from the other workers' cursors until no unclaimed work remains.
///
/// Index alignment contract: every claimed chunk starts at a multiple of
/// `kIndexAlign` (= one Bitmap word = 64 bits). Two workers therefore
/// never process indices sharing a 64-bit bitmap word, so a body may
/// Set/Clear bit `i` of shared `Bitmap`s — and write row `i` of a
/// `DenseMemo` — without any synchronization. This is what lets the
/// matching engine record per-rule/per-predicate decision bitmaps from
/// concurrent workers with zero locking.
///
/// Cancellation: `ParallelFor` checks the `RunControl`, deadline clock
/// included, once per item (the block matcher's item is a block, its
/// cancellation unit). On a stop, every
/// worker drains cleanly — no detached threads — and the result reports
/// the *exact* set of items whose body ran, as disjoint index ranges;
/// callers translate those into a partial result's `evaluated` bitmap.
class ThreadPool {
 public:
  /// Chunk boundaries are multiples of this (see alignment contract).
  static constexpr size_t kIndexAlign = 64;

  /// body(worker, index): `worker` is in [0, num_workers()) and stable for
  /// the duration of one item — use it to index per-worker accumulators.
  using ItemFn = std::function<void(size_t worker, size_t index)>;

  struct ForOptions {
    /// Items per claimed chunk; 0 = auto (range / (workers * 16), at
    /// least one alignment unit). Rounded up to a multiple of `align`.
    size_t grain = 0;
    /// When false, workers only drain their own static span (the
    /// equal-partition baseline that work stealing replaces; kept for
    /// benchmarking the difference).
    bool steal = true;
    /// Chunk-boundary alignment. The kIndexAlign default gives the
    /// no-shared-bitmap-words contract for per-pair bodies. Iterations
    /// whose *items* already own disjoint word ranges — the block
    /// matcher's 64-aligned pair blocks — pass 1 so tiny block counts
    /// still spread across workers. 0 is treated as 1.
    size_t align = kIndexAlign;
  };

  /// Outcome of one ParallelFor. On a complete run, `stopped` is false
  /// and every index in [0, n) was processed exactly once. On a stopped
  /// run, `completed` holds the exact set of processed indices as
  /// disjoint, sorted ranges.
  struct ForResult {
    bool stopped = false;
    /// Stop reason (kCancelled / kDeadlineExceeded) when stopped.
    Status status;
    size_t items_completed = 0;
    /// Populated only when stopped: disjoint [begin, end) index ranges,
    /// sorted by begin, whose bodies ran to completion.
    std::vector<std::pair<size_t, size_t>> completed;

    bool complete() const { return !stopped; }
  };

  /// 0 = std::thread::hardware_concurrency(). The pool owns
  /// num_workers() - 1 background threads; the thread calling
  /// ParallelFor participates as worker 0, so `num_threads = 1` runs
  /// inline with no background thread at all.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  size_t num_workers() const { return num_workers_; }

  /// Runs body over every index in [0, n), dynamically load-balanced.
  /// Blocks until all workers have drained (run to completion or stopped
  /// by `control`). Concurrent calls from different threads serialize.
  /// (Overloads instead of `options = {}` defaults: gcc 12 rejects brace
  /// defaults of nested NSDMI aggregates inside the enclosing class.)
  ForResult ParallelFor(size_t n, const RunControl& control,
                        const ItemFn& body, ForOptions options);
  ForResult ParallelFor(size_t n, const RunControl& control,
                        const ItemFn& body) {
    return ParallelFor(n, control, body, ForOptions{});
  }

  /// Uncontrolled convenience overloads: run to completion.
  ForResult ParallelFor(size_t n, const ItemFn& body, ForOptions options) {
    return ParallelFor(n, RunControl(), body, options);
  }
  ForResult ParallelFor(size_t n, const ItemFn& body) {
    return ParallelFor(n, RunControl(), body, ForOptions{});
  }

  /// Fold with per-worker accumulators (false-sharing padded): item(w, i,
  /// acc) mutates worker w's accumulator; the accumulators are combined
  /// into one T at the end with combine(total, acc). The combination
  /// order is by worker id, so combine should be commutative-associative
  /// for deterministic results (all matching uses are sums).
  template <typename T, typename ItemAcc, typename Combine>
  T ParallelReduce(size_t n, const RunControl& control, T init,
                   const ItemAcc& item, const Combine& combine) {
    return ParallelReduce(n, control, std::move(init), item, combine,
                          ForOptions{}, nullptr);
  }

  template <typename T, typename ItemAcc, typename Combine>
  T ParallelReduce(size_t n, const RunControl& control, T init,
                   const ItemAcc& item, const Combine& combine,
                   ForOptions options, ForResult* result = nullptr) {
    struct alignas(64) Padded {
      T value;
    };
    std::vector<Padded> acc(num_workers(), Padded{init});
    ForResult r = ParallelFor(
        n, control,
        [&](size_t w, size_t i) { item(w, i, acc[w].value); }, options);
    T total = std::move(init);
    for (Padded& a : acc) combine(total, a.value);
    if (result != nullptr) *result = std::move(r);
    return total;
  }

 private:
  struct Job;

  void ThreadLoop(size_t worker);
  /// Drains the job as worker `w`: own span first, then steals.
  void RunWorker(Job& job, size_t w);

  size_t num_workers_;
  std::vector<std::thread> threads_;

  /// Serializes ParallelFor calls (the pool is a per-session resource;
  /// nested/concurrent fan-out degrades to taking turns, never deadlock).
  std::mutex run_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  Job* job_ = nullptr;
  size_t busy_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace emdbg

#endif  // EMDBG_UTIL_THREAD_POOL_H_
