#ifndef EMDBG_BENCH_BENCH_COMMON_H_
#define EMDBG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/core/cost_model.h"
#include "src/core/pair_context.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/data/datasets.h"
#include "src/util/string_util.h"

namespace emdbg::bench {

/// Shared command-line options for the figure/table harnesses.
///
///   --scale=<f>   dataset scale factor relative to the paper's Table 2
///                 sizes (default 0.05 keeps every bench in seconds; 1.0
///                 reproduces the paper-scale Products dataset)
///   --rules=<n>   size of the generated rule set (default 255, as in the
///                 paper's Products rule set)
///   --reps=<n>    repetitions per data point (default 2; the paper uses 3)
///   --dataset=<name>  one of the six Table 2 datasets (default products)
struct BenchOptions {
  double scale = 0.05;
  size_t rules = 255;
  size_t reps = 2;
  DatasetId dataset = DatasetId::kProducts;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      double d = 0.0;
      int64_t n = 0;
      if (StartsWith(arg, "--scale=") &&
          ParseDouble(arg.substr(8), &d)) {
        opts.scale = d;
      } else if (StartsWith(arg, "--rules=") &&
                 ParseInt64(arg.substr(8), &n)) {
        opts.rules = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--reps=") &&
                 ParseInt64(arg.substr(7), &n)) {
        opts.reps = static_cast<size_t>(n);
      } else if (StartsWith(arg, "--dataset=")) {
        auto id = DatasetIdFromName(arg.substr(10));
        if (id.ok()) opts.dataset = *id;
      }
    }
    return opts;
  }
};

/// A fully prepared benchmark environment: scaled dataset, catalog with
/// every same-attribute feature, evaluation context, estimation sample,
/// and a rule generator mirroring the paper's 255-rule Products set.
struct BenchEnv {
  DatasetProfile profile;
  GeneratedDataset ds;
  FeatureCatalog catalog;
  std::unique_ptr<PairContext> ctx;
  CandidateSet sample;  // 1% estimation sample (paper Sec. 7.3)
  std::unique_ptr<RuleGenerator> generator;

  static BenchEnv Make(const BenchOptions& opts,
                       uint64_t rule_seed = 20170321) {
    BenchEnv env;
    env.profile =
        ScaleProfile(PaperDatasetProfile(opts.dataset), opts.scale);
    env.ds = GenerateDataset(env.profile);
    env.catalog = FeatureCatalog(env.ds.a.schema(), env.ds.b.schema());
    env.catalog.InternAllSameAttribute();
    env.ctx = std::make_unique<PairContext>(env.ds.a, env.ds.b,
                                            env.catalog);
    Rng rng(rule_seed);
    env.sample = SamplePairs(env.ds.candidates, 0.01, rng, 100);
    RuleGeneratorConfig config;
    config.num_rules = opts.rules;
    config.min_predicates = 4;
    config.max_predicates = 9;
    // Paper Table 2: products uses 32 of 33 features. Our catalog has
    // 13 functions x 5 attributes; restrict to a 32-feature pool.
    config.feature_pool = 32;
    config.seed = rule_seed;
    env.generator =
        std::make_unique<RuleGenerator>(*env.ctx, env.sample, config);
    return env;
  }

  /// A fresh rule set of `n` rules drawn from the generator's pool (the
  /// paper evaluates random subsets of its 255 rules).
  MatchingFunction RuleSubset(size_t n, uint64_t seed) const {
    Rng rng(seed);
    MatchingFunction fn;
    for (const Rule& r : generator->GenerateRules(n, rng)) fn.AddRule(r);
    return fn;
  }
};

inline void PrintHeader(const char* title, const BenchOptions& opts,
                        const BenchEnv& env) {
  std::printf("## %s\n", title);
  std::printf(
      "# dataset=%s scale=%.3g: |A|=%zu |B|=%zu candidates=%zu "
      "true_matches=%zu rules=%zu reps=%zu\n",
      env.profile.name.c_str(), opts.scale, env.ds.a.num_rows(),
      env.ds.b.num_rows(), env.ds.candidates.size(),
      env.ds.true_matches.size(), opts.rules, opts.reps);
}

/// Writes the machine and build lines of a BENCH_*.json header (`nproc`,
/// compiler, build type), each a member followed by a comma.
/// EMDBG_BUILD_TYPE comes from bench/CMakeLists.txt.
inline void WriteJsonProvenance(std::FILE* f) {
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

}  // namespace emdbg::bench

#endif  // EMDBG_BENCH_BENCH_COMMON_H_
