/// Extension bench: the interned-id kernel layer versus the string
/// kernels it replaces.
///
/// Six sections, written to BENCH_kernels.json:
///   * per-kernel microbenchmarks over real candidate pairs — the string
///     path re-derives sorted/weighted token structures per call (as the
///     pre-interning evaluator did), the id path reads the prebuilt
///     per-record arrays that PairContext now caches;
///   * build time of each attribute's word-id and q-gram code columns
///     (PairContext::Prewarm on a fresh context);
///   * |A ∩ B| at 8..64 elements: the scalar merge against the SSE2 4x4
///     block kernel, with a flag telling whether every count agreed;
///   * scalar vs bit-parallel (Myers) Levenshtein at 8..256 chars, with a
///     flag telling whether every distance agreed with the scalar DP's;
///   * the character kernels (Jaro, Jaro-Winkler, Smith-Waterman,
///     Needleman-Wunsch) against their *Scalar oracles at 8..256 chars
///     (Jaro up to 64: a longer b runs the oracle itself), with a flag
///     telling whether every result agreed bit for bit;
///   * end-to-end MemoMatcher wall clock with interning off vs on, for two
///     Table 2 dataset profiles (context construction + matching, so the
///     id path pays its own build cost), each with an estimated per-stage
///     breakdown: context build / feature kernels / memo-probe + rule
///     evaluation (warm re-run) — the decomposition that motivated the
///     columnar block engine (see bench_block.cc).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/memo.h"
#include "src/core/memo_matcher.h"
#include "src/text/alignment.h"
#include "src/text/cosine.h"
#include "src/text/id_kernels.h"
#include "src/text/jaro.h"
#include "src/text/levenshtein.h"
#include "src/text/monge_elkan.h"
#include "src/text/set_similarity.h"
#include "src/text/soft_tfidf.h"
#include "src/text/tfidf.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"

namespace emdbg::bench {
namespace {

struct KernelPoint {
  std::string name;
  double string_ns = 0.0;  // per pair
  double id_ns = 0.0;
  double speedup = 0.0;
};

struct LevPoint {
  size_t length = 0;
  double scalar_ns = 0.0;  // per pair
  double myers_ns = 0.0;
  double speedup = 0.0;
  bool identical = false;  // every distance agreed with the scalar DP's
};

/// One character kernel at one string length: the production kernel
/// against its scalar oracle, and whether all their results agreed bit for
/// bit.
struct CharKernelPoint {
  std::string name;
  size_t length = 0;
  double scalar_ns = 0.0;  // per pair
  double production_ns = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

/// Build time of one attribute's id columns (A and B) through
/// PairContext::Prewarm on a fresh context.
struct ColumnBuildPoint {
  std::string attr;
  std::string kind;  // "words" or "qgrams"
  size_t rows = 0;   // A + B
  double build_ms = 0.0;
};

/// |A ∩ B| of two n-element sorted sets: the scalar merge against the
/// production kernel (SSE2 4x4 blocks), and whether every count agreed.
struct IntersectionPoint {
  size_t elements = 0;
  double scalar_ns = 0.0;  // per pair
  double sse2_ns = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

/// Estimated per-stage wall-time decomposition of one end-to-end run:
/// context construction (tokenize + intern + cache build), cold matching
/// (kernels + memo probes + predicate eval), warm matching (same run on
/// the now-full memo: probes + predicates + orchestration only), and the
/// kernel share inferred as cold − warm.
struct E2eStages {
  double context_ms = 0.0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double kernel_ms = 0.0;  // cold - warm
};

struct E2ePoint {
  std::string dataset;
  size_t candidates = 0;
  double string_ms = 0.0;  // context + cold, string kernels
  double id_ms = 0.0;      // context + cold, interned-id kernels
  double speedup = 0.0;
  E2eStages string_stages;
  E2eStages id_stages;
};

// Prebuilt per-record structures for one attribute column of both tables:
// what PairContext caches for the id path, plus the raw token lists the
// string path starts from.
struct Column {
  std::vector<TokenList> words_a, words_b;
  std::vector<TokenList> qgrams_a, qgrams_b;
  std::vector<TokenIds> ids_a, ids_b;          // words
  std::vector<TokenIds> qids_a, qids_b;        // q-gram codes
  std::vector<IdTfVector> tf_a, tf_b;
  std::vector<IdWeightVector> w_a, w_b;
  TfIdfModel model;
  std::shared_ptr<const std::vector<uint32_t>> ranks;
};

Column BuildColumn(const BenchEnv& env, AttrIndex attr,
                   TokenInterner& interner) {
  Column col;
  auto build_side = [&](const Table& t, std::vector<TokenList>& words,
                        std::vector<TokenList>& qgrams,
                        std::vector<TokenIds>& ids,
                        std::vector<TokenIds>& qids) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      words.push_back(AlnumTokenize(t.Value(r, attr)));
      qgrams.push_back(QGramTokenize(t.Value(r, attr), 3));
      TokenIds w;
      w.doc = InternDocIds(words.back(), interner);
      w.sorted = SortedUniqueIds(w.doc);
      ids.push_back(std::move(w));
      // Q-grams as PairContext keeps them: packed codes, not interned.
      TokenIds q;
      q.sorted.resize(QGramCodeCapacity(t.Value(r, attr).size()));
      q.sorted.resize(SortedQGramCodes(t.Value(r, attr), q.sorted.data()));
      qids.push_back(std::move(q));
    }
  };
  build_side(env.ds.a, col.words_a, col.qgrams_a, col.ids_a, col.qids_a);
  build_side(env.ds.b, col.words_b, col.qgrams_b, col.ids_b, col.qids_b);
  for (const TokenList& d : col.words_a) col.model.AddDocument(d);
  for (const TokenList& d : col.words_b) col.model.AddDocument(d);
  col.ranks = interner.LexRanks();
  std::vector<double> idf_by_id;
  idf_by_id.reserve(interner.size());
  for (uint32_t id = 0; id < interner.size(); ++id) {
    idf_by_id.push_back(col.model.Idf(std::string(interner.Text(id))));
  }
  auto build_tf = [&](const std::vector<TokenIds>& ids,
                      std::vector<IdTfVector>& tf,
                      std::vector<IdWeightVector>& w) {
    for (const TokenIds& d : ids) {
      tf.push_back(MakeIdTfVector(d.doc, *col.ranks));
      w.push_back(MakeIdWeightVector(tf.back(), idf_by_id));
    }
  };
  build_tf(col.ids_a, col.tf_a, col.w_a);
  build_tf(col.ids_b, col.tf_b, col.w_b);
  return col;
}

// Times `fn(pair)` over the pair sample, `reps` times; returns the best
// per-pair nanoseconds (min over reps, the usual microbench estimator).
template <typename Fn>
double TimePerPair(const std::vector<PairId>& pairs, size_t reps, Fn fn) {
  double best_ms = 1e300;
  double sink = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    for (const PairId& p : pairs) sink += fn(p);
    best_ms = std::min(best_ms, timer.ElapsedMillis());
  }
  // Defeat dead-code elimination without touching the timing loop.
  if (sink == -1.0) std::printf("impossible\n");
  return best_ms * 1e6 / static_cast<double>(pairs.size());
}

std::vector<KernelPoint> BenchKernels(const BenchEnv& env, size_t reps,
                                      std::vector<PairId> pairs) {
  TokenInterner interner;
  const Column col = BuildColumn(env, 0, interner);
  const auto& ranks = *col.ranks;

  std::vector<KernelPoint> points;
  auto add = [&](const char* name, double string_ns, double id_ns) {
    points.push_back(
        {name, string_ns, id_ns, id_ns > 0.0 ? string_ns / id_ns : 0.0});
    std::printf("%-12s string %9.1f ns/pair   id %8.1f ns/pair   %5.2fx\n",
                name, string_ns, id_ns,
                id_ns > 0.0 ? string_ns / id_ns : 0.0);
  };

  add("jaccard",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return JaccardSimilarity(col.words_a[p.a],
                                             col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdJaccard(col.ids_a[p.a].sorted, col.ids_b[p.b].sorted);
      }));
  add("dice",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return DiceSimilarity(col.words_a[p.a],
                                          col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdDice(col.ids_a[p.a].sorted, col.ids_b[p.b].sorted);
      }));
  add("overlap",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return OverlapCoefficient(col.words_a[p.a],
                                              col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdOverlap(col.ids_a[p.a].sorted, col.ids_b[p.b].sorted);
      }));
  add("trigram",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return JaccardSimilarity(col.qgrams_a[p.a],
                                             col.qgrams_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdJaccard(col.qids_a[p.a].sorted, col.qids_b[p.b].sorted);
      }));
  add("cosine",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return CosineSimilarity(col.words_a[p.a],
                                            col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdCosineTf(col.tf_a[p.a], col.tf_b[p.b], ranks);
      }));
  add("tfidf",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return col.model.Similarity(col.words_a[p.a],
                                                col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdTfIdfCosine(col.w_a[p.a], col.w_b[p.b], ranks);
      }));
  add("soft_tfidf",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return SoftTfIdfSimilarity(col.model, col.words_a[p.a],
                                               col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdSoftTfIdf(col.w_a[p.a], col.w_b[p.b], ranks, interner);
      }));
  add("monge_elkan",
      TimePerPair(pairs, reps,
                  [&](PairId p) {
                    return MongeElkanSimilarity(col.words_a[p.a],
                                                col.words_b[p.b]);
                  }),
      TimePerPair(pairs, reps, [&](PairId p) {
        return IdMongeElkan(col.ids_a[p.a].doc, col.ids_a[p.a].sorted,
                            col.ids_b[p.b].doc, col.ids_b[p.b].sorted,
                            interner);
      }));
  return points;
}

std::vector<ColumnBuildPoint> BenchColumnBuilds(const BenchEnv& env,
                                               size_t reps) {
  FeatureCatalog catalog(env.ds.a.schema(), env.ds.b.schema());
  std::vector<ColumnBuildPoint> points;
  for (AttrIndex attr = 0; attr < env.ds.a.schema().size(); ++attr) {
    for (const bool qgrams : {false, true}) {
      const FeatureId f = catalog.Intern(Feature{
          qgrams ? SimFunction::kTrigram : SimFunction::kJaccard, attr,
          attr});
      ColumnBuildPoint p;
      p.attr = env.ds.a.schema().name(attr);
      p.kind = qgrams ? "qgrams" : "words";
      p.rows = env.ds.a.num_rows() + env.ds.b.num_rows();
      p.build_ms = 1e300;
      for (size_t rep = 0; rep < reps; ++rep) {
        PairContext ctx(env.ds.a, env.ds.b, catalog);
        Stopwatch timer;
        ctx.Prewarm({f});
        p.build_ms = std::min(p.build_ms, timer.ElapsedMillis());
      }
      std::printf("column %-10s %-6s %6zu rows: build %7.3f ms\n",
                  p.attr.c_str(), p.kind.c_str(), p.rows, p.build_ms);
      points.push_back(p);
    }
  }
  return points;
}

std::vector<IntersectionPoint> BenchIntersections(size_t reps) {
  std::vector<IntersectionPoint> points;
  Rng rng(57);
  for (const size_t n : {size_t{8}, size_t{16}, size_t{32}, size_t{64}}) {
    // 256 pairs of n-element sets drawn from 3n values: about a third of
    // each set is shared, like the q-gram sets of near-duplicate titles.
    std::vector<std::pair<std::vector<TokenId>, std::vector<TokenId>>> sets;
    auto draw = [&] {
      std::vector<TokenId> v;
      while (v.size() < n) {
        v.push_back(static_cast<TokenId>(rng.Uniform(3 * n)));
        if (v.size() == n) {
          std::sort(v.begin(), v.end());
          v.erase(std::unique(v.begin(), v.end()), v.end());
        }
      }
      return v;
    };
    for (int k = 0; k < 256; ++k) sets.emplace_back(draw(), draw());
    constexpr int kPasses = 64;  // passes over the sets per timed rep
    double best_ms[2] = {1e300, 1e300};
    size_t sink = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (int side = 0; side < 2; ++side) {
        Stopwatch timer;
        for (int pass = 0; pass < kPasses; ++pass) {
          for (const auto& [a, b] : sets) {
            sink += side == 0 ? IdIntersectionSizeScalar(a, b)
                              : IdIntersectionSize(a, b);
          }
        }
        best_ms[side] = std::min(best_ms[side], timer.ElapsedMillis());
      }
    }
    if (sink == size_t(-1)) std::printf("impossible\n");
    IntersectionPoint p;
    p.elements = n;
    const double calls = static_cast<double>(sets.size()) * kPasses;
    p.scalar_ns = best_ms[0] * 1e6 / calls;
    p.sse2_ns = best_ms[1] * 1e6 / calls;
    p.speedup = p.scalar_ns / p.sse2_ns;
    p.identical = true;
    for (const auto& [a, b] : sets) {
      const size_t want = IdIntersectionSizeScalar(a, b);
      p.identical &= IdIntersectionSize(a, b) == want &&
                     IdIntersectionSize(b, a) == want;
    }
    std::printf(
        "intersection %2zu elements: scalar %7.1f ns   sse2 %7.1f ns   "
        "%5.2fx   %s\n",
        n, p.scalar_ns, p.sse2_ns, p.speedup,
        p.identical ? "identical" : "DIFFERENT");
    points.push_back(p);
  }
  return points;
}

using StringPairs = std::vector<std::pair<std::string, std::string>>;

// 256 pairs of `len`-char strings over 8 letters; each position of b
// copies a's half the time, so the workload is not all-mismatch.
StringPairs RandomStringPairs(Rng& rng, size_t len) {
  const char* alphabet = "abcdefgh";
  StringPairs pairs;
  for (int i = 0; i < 256; ++i) {
    std::string a;
    std::string b;
    for (size_t k = 0; k < len; ++k) {
      a.push_back(alphabet[rng.Uniform(8)]);
      b.push_back(rng.Uniform(2) != 0u ? a.back()
                                       : alphabet[rng.Uniform(8)]);
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

std::vector<LevPoint> BenchLevenshtein(size_t reps) {
  std::vector<LevPoint> points;
  Rng rng(99);
  for (const size_t len : {size_t{8}, size_t{16}, size_t{32}, size_t{64},
                           size_t{128}, size_t{256}}) {
    const StringPairs pairs = RandomStringPairs(rng, len);
    // The two kernels' reps alternate, as in BenchCharKernels.
    double best_ms[2] = {1e300, 1e300};
    size_t sink = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (int side = 0; side < 2; ++side) {
        Stopwatch timer;
        for (const auto& [a, b] : pairs) {
          sink += side == 0 ? LevenshteinDistanceScalar(a, b)
                            : LevenshteinDistance(a, b);
        }
        best_ms[side] = std::min(best_ms[side], timer.ElapsedMillis());
      }
    }
    if (sink == size_t(-1)) std::printf("impossible\n");
    LevPoint p;
    p.length = len;
    p.scalar_ns = best_ms[0] * 1e6 / static_cast<double>(pairs.size());
    p.myers_ns = best_ms[1] * 1e6 / static_cast<double>(pairs.size());
    p.speedup = p.scalar_ns / p.myers_ns;
    // Both entry points against their oracles, in both argument orders;
    // the bounds cover an early exit, a distance at the bound and none.
    p.identical = true;
    for (const auto& [a, b] : pairs) {
      for (int order = 0; order < 2; ++order) {
        const std::string& x = order == 0 ? a : b;
        const std::string& y = order == 0 ? b : a;
        const size_t want = LevenshteinDistanceScalar(x, y);
        p.identical &= LevenshteinDistance(x, y) == want;
        for (const size_t bound : {size_t{0}, want, len / 4, len}) {
          p.identical &= LevenshteinDistanceBounded(x, y, bound) ==
                         std::min(want, bound + 1);
        }
      }
    }
    points.push_back(p);
    std::printf(
        "levenshtein %3zu chars: scalar %9.1f ns   myers %8.1f ns   "
        "%5.2fx   %s\n",
        len, p.scalar_ns, p.myers_ns, p.speedup,
        p.identical ? "identical" : "DIFFERENT");
  }
  return points;
}

std::vector<CharKernelPoint> BenchCharKernels(size_t reps) {
  using Kernel = double (*)(std::string_view, std::string_view);
  struct Entry {
    const char* name;
    Kernel scalar;
    Kernel production;
    size_t max_length;  // Jaro's bit-parallel search covers |b| <= 64
  };
  const Entry entries[] = {
      {"jaro", JaroSimilarityScalar, JaroSimilarity, 64},
      {"jaro_winkler", JaroWinklerSimilarityScalar, JaroWinklerSimilarity,
       64},
      {"smith_waterman", SmithWatermanSimilarityScalar,
       SmithWatermanSimilarity, 256},
      {"needleman_wunsch", NeedlemanWunschSimilarityScalar,
       NeedlemanWunschSimilarity, 256},
  };
  std::vector<CharKernelPoint> points;
  Rng rng(77);
  for (const size_t len : {size_t{8}, size_t{32}, size_t{64}, size_t{128},
                           size_t{256}}) {
    const StringPairs pairs = RandomStringPairs(rng, len);
    for (const Entry& e : entries) {
      if (len > e.max_length) continue;
      // The two kernels' reps alternate, so a slow phase of the host
      // falls on both sides alike; each keeps its best rep.
      double best_ms[2] = {1e300, 1e300};
      double sink = 0.0;
      for (size_t rep = 0; rep < reps; ++rep) {
        for (int side = 0; side < 2; ++side) {
          const Kernel fn = side == 0 ? e.scalar : e.production;
          Stopwatch timer;
          for (const auto& [a, b] : pairs) sink += fn(a, b);
          best_ms[side] = std::min(best_ms[side], timer.ElapsedMillis());
        }
      }
      if (sink == -1.0) std::printf("impossible\n");
      CharKernelPoint p;
      p.name = e.name;
      p.length = len;
      p.scalar_ns = best_ms[0] * 1e6 / static_cast<double>(pairs.size());
      p.production_ns = best_ms[1] * 1e6 / static_cast<double>(pairs.size());
      p.speedup = p.scalar_ns / p.production_ns;
      p.identical = true;
      for (const auto& [a, b] : pairs) {
        for (int order = 0; order < 2; ++order) {
          const double want = order == 0 ? e.scalar(a, b) : e.scalar(b, a);
          const double got =
              order == 0 ? e.production(a, b) : e.production(b, a);
          p.identical &= std::memcmp(&want, &got, sizeof(double)) == 0;
        }
      }
      std::printf(
          "%-16s %3zu chars: scalar %9.1f ns   production %8.1f ns   "
          "%5.2fx   %s\n",
          e.name, len, p.scalar_ns, p.production_ns, p.speedup,
          p.identical ? "identical" : "DIFFERENT");
      points.push_back(p);
    }
  }
  return points;
}

E2ePoint BenchEndToEnd(DatasetId dataset, const BenchOptions& opts) {
  BenchOptions local = opts;
  local.dataset = dataset;
  const BenchEnv env = BenchEnv::Make(local);
  const MatchingFunction fn =
      env.RuleSubset(std::min<size_t>(opts.rules, 80), 4242);
  // Per-stage timings, best-of-reps per stage. Fresh context per rep: the
  // id path pays interning + array construction inside its context stage,
  // same as the string path pays tokenization.
  auto run_stages = [&](bool intern) {
    E2eStages stages;
    for (size_t rep = 0; rep < opts.reps; ++rep) {
      Stopwatch build;
      PairContext ctx(env.ds.a, env.ds.b, env.catalog,
                      PairContext::Options{.cache_tokens = true,
                                           .intern_tokens = intern});
      const double context_ms = build.ElapsedMillis();
      DenseMemo memo(env.ds.candidates.size(), env.catalog.size());
      MemoMatcher matcher;
      Stopwatch cold;
      (void)matcher.RunWithMemo(fn, env.ds.candidates, ctx, memo);
      const double cold_ms = cold.ElapsedMillis();
      Stopwatch warm;
      (void)matcher.RunWithMemo(fn, env.ds.candidates, ctx, memo);
      const double warm_ms = warm.ElapsedMillis();
      if (rep == 0) {
        stages = {context_ms, cold_ms, warm_ms, 0.0};
      } else {
        stages.context_ms = std::min(stages.context_ms, context_ms);
        stages.cold_ms = std::min(stages.cold_ms, cold_ms);
        stages.warm_ms = std::min(stages.warm_ms, warm_ms);
      }
    }
    stages.kernel_ms = std::max(0.0, stages.cold_ms - stages.warm_ms);
    return stages;
  };
  E2ePoint point;
  point.dataset = env.profile.name;
  point.candidates = env.ds.candidates.size();
  point.string_stages = run_stages(false);
  point.id_stages = run_stages(true);
  point.string_ms =
      point.string_stages.context_ms + point.string_stages.cold_ms;
  point.id_ms = point.id_stages.context_ms + point.id_stages.cold_ms;
  point.speedup = point.id_ms > 0.0 ? point.string_ms / point.id_ms : 0.0;
  std::printf(
      "end-to-end %-12s %7zu pairs: strings %9.1f ms   ids %8.1f ms   "
      "%5.2fx\n",
      point.dataset.c_str(), point.candidates, point.string_ms,
      point.id_ms, point.speedup);
  std::printf(
      "  id stages: context %.1f ms  kernel %.1f ms  probe+rules %.1f ms\n",
      point.id_stages.context_ms, point.id_stages.kernel_ms,
      point.id_stages.warm_ms);
  return point;
}

/// Writes the machine and build lines of the JSON header (`nproc`,
/// compiler, build type), each a member followed by a comma.
/// EMDBG_BUILD_TYPE comes from bench/CMakeLists.txt.
void WriteJsonProvenance(std::FILE* f) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"compiler\": \"%s\",\n", compiler);
  std::fprintf(f, "  \"build_type\": \"%s\",\n", EMDBG_BUILD_TYPE);
}

void WriteJson(const BenchOptions& opts, const std::string& dataset,
               const std::vector<KernelPoint>& kernels,
               const std::vector<ColumnBuildPoint>& columns,
               const std::vector<IntersectionPoint>& intersections,
               const std::vector<LevPoint>& lev,
               const std::vector<CharKernelPoint>& chars,
               const std::vector<E2ePoint>& e2e, const char* path) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"scale\": %g,\n", opts.scale);
  std::fprintf(f, "  \"reps\": %zu,\n", opts.reps);
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelPoint& p = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"string_ns_per_pair\": %.1f, "
                 "\"id_ns_per_pair\": %.1f, \"speedup\": %.2f}%s\n",
                 p.name.c_str(), p.string_ns, p.id_ns, p.speedup,
                 i + 1 == kernels.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"column_builds\": {\"dataset\": \"%s\", \"rows\": [\n",
               dataset.c_str());
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnBuildPoint& p = columns[i];
    std::fprintf(f,
                 "    {\"attr\": \"%s\", \"kind\": \"%s\", \"rows\": %zu, "
                 "\"build_ms\": %.3f}%s\n",
                 p.attr.c_str(), p.kind.c_str(), p.rows, p.build_ms,
                 i + 1 == columns.size() ? "" : ",");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"intersections\": [\n");
  for (size_t i = 0; i < intersections.size(); ++i) {
    const IntersectionPoint& p = intersections[i];
    std::fprintf(f,
                 "    {\"elements\": %zu, \"scalar_ns\": %.1f, "
                 "\"sse2_ns\": %.1f, \"speedup\": %.2f, "
                 "\"identical\": %s}%s\n",
                 p.elements, p.scalar_ns, p.sse2_ns, p.speedup,
                 p.identical ? "true" : "false",
                 i + 1 == intersections.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"levenshtein\": [\n");
  for (size_t i = 0; i < lev.size(); ++i) {
    const LevPoint& p = lev[i];
    std::fprintf(f,
                 "    {\"length\": %zu, \"scalar_ns\": %.1f, "
                 "\"myers_ns\": %.1f, \"speedup\": %.2f, "
                 "\"identical\": %s}%s\n",
                 p.length, p.scalar_ns, p.myers_ns, p.speedup,
                 p.identical ? "true" : "false",
                 i + 1 == lev.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"char_kernels\": [\n");
  for (size_t i = 0; i < chars.size(); ++i) {
    const CharKernelPoint& p = chars[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"length\": %zu, "
                 "\"scalar_ns\": %.1f, \"production_ns\": %.1f, "
                 "\"speedup\": %.2f, \"identical\": %s}%s\n",
                 p.name.c_str(), p.length, p.scalar_ns, p.production_ns,
                 p.speedup, p.identical ? "true" : "false",
                 i + 1 == chars.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"end_to_end\": [\n");
  auto stage_json = [&](const char* key, const E2eStages& s,
                        const char* suffix) {
    std::fprintf(f,
                 "     \"%s\": {\"context_ms\": %.1f, \"cold_ms\": %.1f, "
                 "\"warm_ms\": %.1f, \"kernel_ms\": %.1f}%s\n",
                 key, s.context_ms, s.cold_ms, s.warm_ms, s.kernel_ms,
                 suffix);
  };
  for (size_t i = 0; i < e2e.size(); ++i) {
    const E2ePoint& p = e2e[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"candidates\": %zu, "
                 "\"string_ms\": %.1f, \"id_ms\": %.1f, "
                 "\"speedup\": %.2f,\n",
                 p.dataset.c_str(), p.candidates, p.string_ms, p.id_ms,
                 p.speedup);
    stage_json("string_stages", p.string_stages, ",");
    stage_json("id_stages", p.id_stages, "");
    std::fprintf(f, "    }%s\n", i + 1 == e2e.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  if (std::rename(tmp.c_str(), path) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), path);
  }
}

void Run(const BenchOptions& opts) {
  const BenchEnv env = BenchEnv::Make(opts);
  PrintHeader("Extension: interned-id kernels vs string kernels", opts,
              env);

  std::vector<PairId> pairs = env.ds.candidates.pairs();
  if (pairs.size() > 20000) pairs.resize(20000);

  const std::vector<KernelPoint> kernels =
      BenchKernels(env, opts.reps + 1, pairs);
  const std::vector<ColumnBuildPoint> columns =
      BenchColumnBuilds(env, opts.reps + 1);
  const std::vector<IntersectionPoint> intersections =
      BenchIntersections(3 * (opts.reps + 1));
  const std::vector<LevPoint> lev = BenchLevenshtein(opts.reps + 1);
  const std::vector<CharKernelPoint> chars = BenchCharKernels(opts.reps + 1);
  std::vector<E2ePoint> e2e;
  e2e.push_back(BenchEndToEnd(DatasetId::kProducts, opts));
  e2e.push_back(BenchEndToEnd(DatasetId::kBooks, opts));

  WriteJson(opts, env.profile.name, kernels, columns, intersections, lev,
            chars, e2e, "BENCH_kernels.json");
  std::printf("wrote BENCH_kernels.json\n");
}

}  // namespace
}  // namespace emdbg::bench

int main(int argc, char** argv) {
  emdbg::bench::Run(emdbg::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
