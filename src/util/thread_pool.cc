#include "src/util/thread_pool.h"

#include <algorithm>

namespace emdbg {

namespace {

size_t RoundUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

/// Appends [begin, end) to a per-worker completed list, merging with the
/// previous range when adjacent (a worker draining its own span claims
/// consecutive chunks, so the common case collapses to one range).
void AppendRange(std::vector<std::pair<size_t, size_t>>& ranges,
                 size_t begin, size_t end) {
  if (begin >= end) return;
  if (!ranges.empty() && ranges.back().second == begin) {
    ranges.back().second = end;
  } else {
    ranges.emplace_back(begin, end);
  }
}

}  // namespace

/// One ParallelFor in flight. Per-worker cursors are cacheline-padded:
/// `next` is hammered by fetch_add from the owner and, near the tail, by
/// thieves; padding keeps that contention off neighboring cursors.
struct ThreadPool::Job {
  struct alignas(64) Cursor {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  size_t grain = kIndexAlign;
  bool steal = true;
  const ItemFn* body = nullptr;
  const RunControl* control = nullptr;
  /// Tripped by the first worker whose StopCheck fires; other workers
  /// observe it once per item and drain without claiming more chunks.
  std::atomic<bool> stop{false};
  std::unique_ptr<Cursor[]> cursors;
  /// Per-worker exact completion records (disjoint ranges, in claim
  /// order for that worker).
  std::vector<std::vector<std::pair<size_t, size_t>>> completed;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  num_workers_ = num_threads;
  threads_.reserve(num_workers_ - 1);
  for (size_t w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { ThreadLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ThreadLoop(size_t worker) {
  uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || generation_ > seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    RunWorker(*job, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--busy_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunWorker(Job& job, size_t w) {
  // Items are coarse (a block matcher's blocks): read the deadline clock
  // at every one.
  StopCheck stop(*job.control, /*deadline_stride=*/1);
  std::vector<std::pair<size_t, size_t>>& done = job.completed[w];

  // Runs one claimed chunk; false = the run was stopped inside it. The
  // completed list records exactly the items whose body ran: a stop
  // between items records the partial prefix and nothing else.
  auto run_chunk = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (job.stop.load(std::memory_order_relaxed) || stop.ShouldStop()) {
        job.stop.store(true, std::memory_order_relaxed);
        AppendRange(done, begin, i);
        return false;
      }
      (*job.body)(w, i);
    }
    AppendRange(done, begin, end);
    return true;
  };

  // Own span first (locality), then one circular scan over the other
  // workers' cursors. Spans are never refilled, so a cursor observed
  // exhausted stays exhausted and one scan suffices.
  const size_t k = num_workers_;
  for (size_t v = w; v < w + k; ++v) {
    if (v != w && !job.steal) return;
    Job::Cursor& cursor = job.cursors[v % k];
    while (true) {
      if (job.stop.load(std::memory_order_relaxed)) return;
      if (cursor.next.load(std::memory_order_relaxed) >= cursor.end) break;
      const size_t begin =
          cursor.next.fetch_add(job.grain, std::memory_order_relaxed);
      if (begin >= cursor.end) break;
      if (!run_chunk(begin, std::min(begin + job.grain, cursor.end))) {
        return;
      }
    }
  }
}

ThreadPool::ForResult ThreadPool::ParallelFor(size_t n,
                                              const RunControl& control,
                                              const ItemFn& body,
                                              ForOptions options) {
  ForResult result;
  if (n == 0) return result;
  std::lock_guard<std::mutex> serialize(run_mu_);

  const size_t k = num_workers_;
  const size_t align = std::max<size_t>(1, options.align);
  Job job;
  job.grain = options.grain != 0
                  ? RoundUp(options.grain, align)
                  : std::max(align, RoundUp(n / (k * 16 + 1), align));
  job.steal = options.steal;
  job.body = &body;
  job.control = &control;
  job.cursors = std::make_unique<Job::Cursor[]>(k);
  job.completed.resize(k);

  // Equal aligned spans; dynamics come from chunked claiming + stealing.
  const size_t span = std::max(RoundUp((n + k - 1) / k, align), align);
  for (size_t w = 0; w < k; ++w) {
    job.cursors[w].next.store(std::min(w * span, n),
                              std::memory_order_relaxed);
    job.cursors[w].end = std::min((w + 1) * span, n);
  }

  if (k > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      busy_workers_ = k - 1;
      ++generation_;
    }
    work_cv_.notify_all();
  }

  RunWorker(job, 0);  // the calling thread is worker 0

  if (k > 1) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return busy_workers_ == 0; });
    job_ = nullptr;
  }

  if (job.stop.load(std::memory_order_relaxed)) {
    result.stopped = true;
    result.status = control.StopStatus();
    for (std::vector<std::pair<size_t, size_t>>& ranges : job.completed) {
      for (const auto& r : ranges) {
        result.items_completed += r.second - r.first;
      }
      result.completed.insert(result.completed.end(), ranges.begin(),
                              ranges.end());
    }
    std::sort(result.completed.begin(), result.completed.end());
  } else {
    result.items_completed = n;
  }
  return result;
}

}  // namespace emdbg
