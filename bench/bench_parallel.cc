/// Extension bench: the work-stealing execution engine.
///
/// Grows scaling curves for the production engine (BlockMatcher over a
/// pool) over 1..N threads on two workload shapes drawn from the same
/// per-pair cost profile:
///
///   * uniform — the items are shuffled, so every static span holds
///     roughly the same total work (the scheduler-friendly case);
///   * skewed  — the same items sorted cheap→expensive, so a static
///     equal partition hands one worker nearly all the work. Early exit
///     makes this the realistic shape: matches stop at their first true
///     rule while non-matches evaluate every predicate.
///
/// For each (workload, threads) point both schedules are measured:
/// `static` (each worker drains only its own equal span of blocks — the
/// pre-work-stealing baseline) and `dynamic` (block claiming + stealing).
/// Reported per point: the median wall-clock over reps with its
/// quartiles, the median speedup vs. the same engine in one thread (no
/// pool) on the same workload, the memo hit rate, and a *makespan model*
/// — a deterministic greedy simulation of the pool's block claiming over
/// the measured cost profile, i.e. the finish time of the slowest worker
/// on ideal hardware with one core per worker. Wall-clock shows the real
/// effect on multi-core machines; the makespan model isolates scheduling
/// quality independently of how many cores this machine happens to have
/// (on a single-core host, time-slicing makes every schedule's
/// wall-clock identical, so the model is the only meaningful scheduling
/// signal). Before the timed rows, a fixed ALU spin loop runs on one
/// thread and then on each thread count at once; the host's measured
/// parallel capacity (N-thread over 1-thread throughput) is reported next
/// to the speedups, because on a shared host it moves between processes
/// and bounds every wall-clock speedup. Everything is also written as
/// machine-readable JSON (BENCH_parallel.json, atomically via a .tmp
/// rename) so the perf trajectory is recorded across PRs.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/block_matcher.h"
#include "src/core/ordering.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace emdbg::bench {
namespace {

/// Per-pair cost profile: predicate evaluations under DM+EE early exit
/// (memoized within the pair, as the matcher would).
std::vector<uint32_t> ProfilePairCosts(const MatchingFunction& fn,
                                       const CandidateSet& pairs,
                                       PairContext& ctx) {
  std::vector<uint32_t> cost(pairs.size(), 0);
  DenseMemo memo(pairs.size(), ctx.catalog().size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    uint32_t evals = 0;
    for (const Rule& rule : fn.rules()) {
      if (rule.empty()) continue;
      bool rule_true = true;
      for (size_t k = 0; k < rule.size(); ++k) {
        const Predicate& p = rule.predicate(k);
        ++evals;
        double value = 0.0;
        if (!memo.Lookup(i, p.feature, &value)) {
          value = ctx.ComputeFeature(p.feature, pairs.pair(i));
          memo.Store(i, p.feature, value);
        }
        if (!p.Test(value)) {
          rule_true = false;
          break;
        }
      }
      if (rule_true) break;
    }
    cost[i] = evals;
  }
  return cost;
}

struct Workload {
  std::string name;
  CandidateSet pairs;
  /// Per-item cost (predicate evaluations), aligned with `pairs`.
  std::vector<uint64_t> cost;
};

/// Builds the uniform/skewed workload pair. Both hold the same item
/// multiset — 7/8 draws from the cheapest quartile, 1/8 from the most
/// expensive decile — so their serial cost is identical; only the index
/// order (shuffled vs. cost-ascending) differs. That isolates the
/// scheduler: any uniform-vs-skewed gap is load imbalance, not work.
std::vector<Workload> BuildWorkloads(const CandidateSet& pairs,
                                     const std::vector<uint32_t>& cost) {
  const size_t n = pairs.size();
  std::vector<size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), 0);
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](size_t x, size_t y) { return cost[x] < cost[y]; });

  Rng rng(4242);
  std::vector<size_t> items;
  items.reserve(n);
  const size_t cheap_pool = std::max<size_t>(1, n / 4);
  const size_t dear_pool = std::max<size_t>(1, n / 10);
  for (size_t i = 0; i < n; ++i) {
    if (i % 8 == 7) {  // expensive item: most expensive decile
      items.push_back(by_cost[n - 1 - rng.Uniform(dear_pool)]);
    } else {  // cheap item: cheapest quartile
      items.push_back(by_cost[rng.Uniform(cheap_pool)]);
    }
  }

  // Skewed: cheap→expensive, so the tail span concentrates the work.
  std::vector<size_t> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](size_t x, size_t y) { return cost[x] < cost[y]; });
  // Uniform: the same items shuffled.
  std::vector<size_t> shuffled = items;
  rng.Shuffle(shuffled);

  std::vector<Workload> out;
  const std::pair<const char*, const std::vector<size_t>*> orders[] = {
      {"uniform", &shuffled}, {"skewed", &sorted}};
  for (const auto& [name, order] : orders) {
    Workload w;
    w.name = name;
    w.pairs.Reserve(n);
    w.cost.reserve(n);
    for (const size_t i : *order) {
      w.pairs.Add(pairs.pair(i));
      w.cost.push_back(cost[i]);
    }
    out.push_back(std::move(w));
  }
  return out;
}

/// Median and quartiles of one point's wall-clock over reps.
struct Timing {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  static Timing Of(const std::vector<double>& ms) {
    return Timing{Median(ms), Quantile(ms, 0.25), Quantile(ms, 0.75)};
  }
};

struct Point {
  std::string workload;
  std::string schedule;
  size_t threads = 0;
  Timing ms;
  /// Median of the per-rep speedups over the serial median.
  double speedup_vs_serial = 0.0;
  double memo_hit_rate = 0.0;
  /// Modeled finish time of the slowest worker, in predicate
  /// evaluations, from the greedy block-claiming simulation below.
  uint64_t makespan = 0;
};

/// Per-block cost: the sum of its pairs' costs (block b covers pairs
/// [b*B, min((b+1)*B, n))).
std::vector<uint64_t> BlockCosts(const std::vector<uint64_t>& cost,
                                 size_t block) {
  std::vector<uint64_t> out((cost.size() + block - 1) / block, 0);
  for (size_t i = 0; i < cost.size(); ++i) out[i / block] += cost[i];
  return out;
}

/// Deterministic model of BlockMatcher's ParallelFor over blocks with
/// per-block `cost`: replicates the pool's span/cursor/grain layout at
/// alignment 1, then greedily hands the next chunk of blocks (own span
/// first, then stealing, exactly like RunWorker) to the worker with the
/// smallest virtual time. Returns the makespan — the virtual finish time
/// of the slowest worker, i.e. the run's wall-clock on ideal hardware
/// with one core per worker.
uint64_t SimulateMakespan(const std::vector<uint64_t>& cost, size_t workers,
                          bool steal) {
  const size_t n = cost.size();
  const size_t k = std::max<size_t>(1, workers);
  const size_t grain = std::max<size_t>(1, n / (k * 16 + 1));
  const size_t span = std::max<size_t>(1, (n + k - 1) / k);
  std::vector<size_t> next(k), end(k);
  for (size_t w = 0; w < k; ++w) {
    next[w] = std::min(w * span, n);
    end[w] = std::min((w + 1) * span, n);
  }
  std::vector<uint64_t> t(k, 0);
  auto chunk_cost = [&](size_t begin, size_t stop) {
    uint64_t c = 0;
    for (size_t i = begin; i < stop; ++i) c += cost[i];
    return c;
  };
  if (!steal) {
    // Static: each worker drains exactly its own span.
    for (size_t w = 0; w < k; ++w) t[w] = chunk_cost(next[w], end[w]);
    return *std::max_element(t.begin(), t.end());
  }
  while (true) {
    // The worker that would claim next is the one least busy so far.
    size_t w = 0;
    for (size_t v = 1; v < k; ++v) {
      if (t[v] < t[w]) w = v;
    }
    // Own span first, then one circular scan (mirrors RunWorker).
    bool claimed = false;
    for (size_t v = w; v < w + k && !claimed; ++v) {
      const size_t c = v % k;
      if (next[c] >= end[c]) continue;
      const size_t begin = next[c];
      next[c] = std::min(begin + grain, end[c]);
      t[w] += chunk_cost(begin, next[c]);
      claimed = true;
    }
    if (!claimed) break;
  }
  return *std::max_element(t.begin(), t.end());
}

/// One thread's share of the capacity calibration: a dependent chain of
/// integer multiply-xorshift steps (no memory traffic, no shared data).
uint64_t SpinLoop(uint64_t seed) {
  constexpr uint64_t kSteps = 40'000'000;
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

/// Wall-clock ms for `threads` threads each running SpinLoop at once.
double SpinMs(size_t threads) {
  std::vector<uint64_t> sink(threads * 8, 0);  // a cache line per thread
  std::vector<std::thread> pool;
  Stopwatch timer;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] { sink[t * 8] = SpinLoop(t + 1); });
  }
  for (std::thread& th : pool) th.join();
  const double ms = timer.ElapsedMillis();
  uint64_t all = 0;
  for (const uint64_t v : sink) all ^= v;
  if (all == 42) std::printf(" ");  // keep the loops' results alive
  return ms;
}

/// The host's parallel capacity at each thread count: N x (1-thread spin
/// time) / (N-thread spin time), the median over `reps` rounds (each
/// round times 1 thread, then every count). 1.0 at one thread; N on a
/// host that really runs N threads at once.
std::vector<std::pair<size_t, double>> HostParallelCapacity(
    const std::vector<size_t>& thread_counts, size_t reps) {
  std::vector<std::vector<double>> ratios(thread_counts.size());
  for (size_t rep = 0; rep < std::max<size_t>(3, reps); ++rep) {
    const double one = SpinMs(1);
    for (size_t k = 0; k < thread_counts.size(); ++k) {
      const size_t n = thread_counts[k];
      const double ms = n == 1 ? one : SpinMs(n);
      ratios[k].push_back(static_cast<double>(n) * one / ms);
    }
  }
  std::vector<std::pair<size_t, double>> out;
  for (size_t k = 0; k < thread_counts.size(); ++k) {
    out.emplace_back(thread_counts[k], Median(ratios[k]));
  }
  return out;
}

double HitRate(const MatchStats& s) {
  const size_t lookups = s.memo_hits + s.feature_computations;
  return lookups == 0 ? 0.0
                      : static_cast<double>(s.memo_hits) /
                            static_cast<double>(lookups);
}

void WriteJson(const BenchOptions& opts, const BenchEnv& env, size_t hw,
               size_t block,
               const std::vector<std::pair<size_t, double>>& capacity,
               const std::vector<std::pair<std::string, Timing>>& serial,
               const std::vector<Point>& points, double improvement,
               double wallclock_improvement, double model_improvement,
               const char* improvement_metric, const char* path) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"parallel\",\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"dataset\": \"%s\",\n", env.profile.name.c_str());
  std::fprintf(f, "  \"scale\": %g,\n", opts.scale);
  std::fprintf(f, "  \"candidates\": %zu,\n", env.ds.candidates.size());
  std::fprintf(f, "  \"rules\": %zu,\n", opts.rules);
  std::fprintf(f, "  \"reps\": %zu,\n", opts.reps);
  std::fprintf(f, "  \"engine\": \"BlockMatcher\",\n");
  std::fprintf(f, "  \"block_size\": %zu,\n", block);
  std::fprintf(f, "  \"statistic\": \"median over reps, with quartiles\",\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  if (hw < 2) {
    // On a single-core box the >1-thread wall-clock points measure
    // time-sliced threads, not parallel speedup; flag the run so readers
    // (and CI gates) lean on the makespan model instead.
    std::fprintf(f, "  \"wall_clock_unverified\": true,\n");
    std::fprintf(f,
                 "  \"wall_clock_caveat\": \"hardware_concurrency=%zu: "
                 "multi-thread wall-clock numbers are time-sliced, not "
                 "parallel; trust the makespan model columns\",\n",
                 hw);
  } else {
    // A real multi-core run: the stamp clears itself so a rerun on
    // capable hardware retires the caveat without a manual edit.
    std::fprintf(f, "  \"wall_clock_unverified\": false,\n");
  }
  std::fprintf(f, "  \"host_parallel_capacity\": {");
  for (size_t i = 0; i < capacity.size(); ++i) {
    std::fprintf(f, "%s\"%zu\": %.3f", i == 0 ? "" : ", ", capacity[i].first,
                 capacity[i].second);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"serial_ms\": {");
  for (size_t i = 0; i < serial.size(); ++i) {
    const Timing& t = serial[i].second;
    std::fprintf(f, "%s\"%s\": {\"median\": %.3f, \"q1\": %.3f, "
                 "\"q3\": %.3f}",
                 i == 0 ? "" : ", ", serial[i].first.c_str(), t.median, t.q1,
                 t.q3);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"skewed_dynamic_vs_static_improvement_8t\": %.3f,\n",
               improvement);
  std::fprintf(f, "  \"improvement_metric\": \"%s\",\n",
               improvement_metric);
  std::fprintf(f, "  \"skewed_improvement_8t_wallclock\": %.3f,\n",
               wallclock_improvement);
  std::fprintf(f, "  \"skewed_improvement_8t_makespan_model\": %.3f,\n",
               model_improvement);
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"schedule\": \"%s\", "
                 "\"threads\": %zu, \"ms\": %.3f, \"ms_q1\": %.3f, "
                 "\"ms_q3\": %.3f, "
                 "\"speedup_vs_serial\": %.3f, \"memo_hit_rate\": %.4f, "
                 "\"model_makespan\": %llu}%s\n",
                 p.workload.c_str(), p.schedule.c_str(), p.threads,
                 p.ms.median, p.ms.q1, p.ms.q3, p.speedup_vs_serial,
                 p.memo_hit_rate,
                 static_cast<unsigned long long>(p.makespan),
                 i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  if (std::rename(tmp.c_str(), path) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), path);
  }
}

void Run(const BenchOptions& opts) {
  const BenchEnv env = BenchEnv::Make(opts);
  PrintHeader("Extension: BlockMatcher over a work-stealing pool", opts,
              env);
  MatchingFunction fn = env.RuleSubset(opts.rules, 12000);
  const CostModel model =
      CostModel::EstimateForFunction(fn, *env.ctx, env.sample);
  ApplyOrdering(fn, OrderingStrategy::kGreedyReduction, model, nullptr);
  env.ctx->Prewarm(fn.UsedFeatures());

  std::printf("profiling per-pair cost under early exit...\n");
  const std::vector<uint32_t> cost =
      ProfilePairCosts(fn, env.ds.candidates, *env.ctx);
  const uint64_t total_cost = std::accumulate(
      cost.begin(), cost.end(), uint64_t{0},
      [](uint64_t acc, uint32_t c) { return acc + c; });
  const uint32_t max_cost = *std::max_element(cost.begin(), cost.end());
  std::printf(
      "pairs=%zu total_pred_evals=%llu mean=%.1f max=%u (skew max/mean "
      "%.1fx)\n",
      cost.size(), static_cast<unsigned long long>(total_cost),
      static_cast<double>(total_cost) / static_cast<double>(cost.size()),
      max_cost,
      static_cast<double>(max_cost) * static_cast<double>(cost.size()) /
          static_cast<double>(total_cost));

  const std::vector<Workload> workloads =
      BuildWorkloads(env.ds.candidates, cost);

  const size_t hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    std::printf(
        "WARNING: hardware_concurrency=%zu — wall-clock speedups below "
        "are time-sliced, not parallel (stamped into the JSON)\n",
        hw);
  }
  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= std::max<size_t>(8, hw); t *= 2) {
    thread_counts.push_back(t);
  }
  if (hw > 1 && std::find(thread_counts.begin(), thread_counts.end(),
                          hw) == thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  // Measured before the timed rows, on the same thread counts.
  const std::vector<std::pair<size_t, double>> capacity =
      HostParallelCapacity(thread_counts, opts.reps);
  std::printf("host parallel capacity (spin loop, N-thread / 1-thread "
              "throughput):");
  for (const auto& [threads, c] : capacity) {
    std::printf(" %zut=%.2f", threads, c);
  }
  std::printf("\n");

  const size_t block = BlockMatcher::ResolveBlockSize({}, fn);
  std::printf("blocks of %zu pairs\n", block);
  std::vector<std::pair<std::string, Timing>> serial_ms;
  std::vector<Point> points;
  double skewed_static_8t = 0.0, skewed_dynamic_8t = 0.0;
  uint64_t skewed_static_8t_model = 0, skewed_dynamic_8t_model = 0;

  // Wall-clock of `reps` runs of `matcher` over `pairs`; the hit rate of
  // the last.
  auto time_runs = [&](BlockMatcher& matcher, const CandidateSet& pairs,
                       double* hit_rate) {
    std::vector<double> ms;
    for (size_t rep = 0; rep < opts.reps; ++rep) {
      Stopwatch timer;
      const MatchResult r = matcher.Run(fn, pairs, *env.ctx);
      ms.push_back(timer.ElapsedMillis());
      *hit_rate = HitRate(r.stats);
    }
    return ms;
  };

  for (const Workload& w : workloads) {
    double serial_hit_rate = 0.0;
    BlockMatcher serial_matcher;
    const std::vector<double> serial_runs =
        time_runs(serial_matcher, w.pairs, &serial_hit_rate);
    const Timing serial = Timing::Of(serial_runs);
    serial_ms.emplace_back(w.name, serial);
    const std::vector<uint64_t> block_cost = BlockCosts(w.cost, block);
    const uint64_t work = std::accumulate(w.cost.begin(), w.cost.end(),
                                          uint64_t{0});
    std::printf("\n[%s] serial DM+EE (no pool): median %.1f ms "
                "[%.1f, %.1f] (memo hit rate %.1f%%)\n",
                w.name.c_str(), serial.median, serial.q1, serial.q3,
                100.0 * serial_hit_rate);
    std::printf("%8s %9s %10s %17s %10s %12s %10s %14s\n", "threads",
                "schedule", "median", "[q1, q3] ms", "speedup", "vs-static",
                "hit-rate", "model-balance");

    for (const size_t threads : thread_counts) {
      double static_pt_ms = 0.0;
      for (const bool dynamic : {false, true}) {
        ThreadPool pool(threads);
        BlockMatcher matcher(BlockMatcher::Options{
            .pool = &pool, .dynamic_schedule = dynamic});
        double hit_rate = 0.0;
        const std::vector<double> runs =
            time_runs(matcher, w.pairs, &hit_rate);
        std::vector<double> speedups;
        for (const double ms : runs) speedups.push_back(serial.median / ms);
        Point p;
        p.workload = w.name;
        p.schedule = dynamic ? "dynamic" : "static";
        p.threads = threads;
        p.ms = Timing::Of(runs);
        p.speedup_vs_serial = Median(speedups);
        p.memo_hit_rate = hit_rate;
        p.makespan = SimulateMakespan(block_cost, threads, dynamic);
        points.push_back(p);
        if (!dynamic) static_pt_ms = p.ms.median;
        // model-balance: makespan / (work / threads) — 1.00 is a
        // perfectly balanced schedule, higher is worse.
        const double balance =
            static_cast<double>(p.makespan) /
            (static_cast<double>(work) / static_cast<double>(threads));
        std::printf(
            "%8zu %9s %10.1f %17s %10.2f %12s %9.1f%% %14.2f\n", threads,
            p.schedule.c_str(), p.ms.median,
            StrFormat("[%.1f, %.1f]", p.ms.q1, p.ms.q3).c_str(),
            p.speedup_vs_serial,
            dynamic ? StrFormat("%.2fx", static_pt_ms / p.ms.median).c_str()
                    : "-",
            100.0 * hit_rate, balance);
        if (w.name == "skewed" && threads == 8) {
          (dynamic ? skewed_dynamic_8t : skewed_static_8t) = p.ms.median;
          (dynamic ? skewed_dynamic_8t_model : skewed_static_8t_model) =
              p.makespan;
        }
      }
    }
  }

  const double wallclock_improvement =
      skewed_dynamic_8t > 0.0 ? skewed_static_8t / skewed_dynamic_8t : 0.0;
  const double model_improvement =
      skewed_dynamic_8t_model > 0
          ? static_cast<double>(skewed_static_8t_model) /
                static_cast<double>(skewed_dynamic_8t_model)
          : 0.0;
  // On a single-core host every schedule time-slices to the same
  // wall-clock, so the makespan model is the only meaningful scheduling
  // signal; on real multi-core hardware the wall-clock is authoritative.
  const bool use_model = hw < 2;
  const double improvement =
      use_model ? model_improvement : wallclock_improvement;
  std::printf(
      "\nskewed workload, 8 threads: dynamic %.1f ms vs static %.1f ms "
      "(%.2fx wall-clock, %.2fx modeled makespan; headline=%s)\n",
      skewed_dynamic_8t, skewed_static_8t, wallclock_improvement,
      model_improvement, use_model ? "model" : "wallclock");

  WriteJson(opts, env, hw, block, capacity, serial_ms, points, improvement,
            wallclock_improvement, model_improvement,
            use_model ? "makespan_model" : "wallclock",
            "BENCH_parallel.json");
  std::printf("wrote BENCH_parallel.json\n");
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
