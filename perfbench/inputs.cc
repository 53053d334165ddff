#include "perfbench/inputs.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "src/core/pair_context.h"
#include "src/core/rule_generator.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/data/candidate_io.h"
#include "src/data/datasets.h"
#include "src/data/table_io.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace perfbench {

using namespace emdbg;

namespace {
constexpr uint64_t kReferenceSeed = 20170321;
}  // namespace

double CorpusScale(const std::string& workload, bool tiny) {
  if (tiny) return 0.01;
  // batch_match and serve_explore at 0.05: the jobs' and sessions' working
  // sets stay near the 2 MB per-core L2; past it, the host's shared-cache
  // contention moved job times twice as much (README.md, noise fact 1).
  return workload == "edit_session" ? 0.3 : 0.05;
}

uint64_t CorpusSeed(const std::string& workload, uint64_t seed) {
  // At scale 0.05 corpora drawn from different seeds differ in work:
  // serve_explore ran 10-15 % slower on seed 3's corpus than on seed 1's,
  // run after run. batch_match and serve_explore therefore keep one corpus,
  // like the paper's one Products table pair, and the seed orders the work
  // on it instead (README.md, "Inputs from the seed").
  return workload == "edit_session" ? 1701 + seed * 7919 : 1701;
}

std::vector<std::string> ServeRules() {
  // One predicate per rule, so a rule's DSL line does not depend on the
  // order a session's cost model gives its predicates. The explore rules
  // are selective (each adds few matches), so every one is evaluated on
  // nearly every pair whatever the order, and each uses a feature no other
  // rule uses.
  static const char* const kRules[] = {
      "exact_match(modelno, modelno) >= 1",
      "jaccard(title, title) >= 0.8",
      "cosine(title, title) >= 0.8",
      "trigram(title, title) >= 0.8",
      "dice(title, title) >= 0.8",
      "overlap(title, title) >= 0.9",
      "tf_idf(title, title) >= 0.8",
      "levenshtein(title, title) >= 0.8",
      "levenshtein(modelno, modelno) >= 0.9",
      "jaro_winkler(modelno, modelno) >= 0.95",
      "needleman_wunsch(modelno, modelno) >= 0.9",
      "soundex(brand, brand) >= 1",
      "smith_waterman(brand, brand) >= 0.9",
  };
  std::vector<std::string> out;
  for (size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    out.push_back(StrFormat("%s%zu: %s", i == 0 ? "s" : "x", i, kRules[i]));
  }
  return out;
}

int RunGen(const Args& args) {
  DatasetProfile profile =
      ScaleProfile(PaperDatasetProfile(DatasetId::kProducts),
                   CorpusScale(args.workload, args.tiny));
  profile.seed = CorpusSeed(args.workload, args.seed);
  const GeneratedDataset ds = GenerateDataset(profile);
  const InputPaths paths(args.dir);
  Status s = SaveTableCsv(ds.a, paths.a);
  if (s.ok()) s = SaveTableCsv(ds.b, paths.b);
  if (s.ok() && args.workload == "batch_match") {
    // The seed orders the candidate pairs (the tool evaluates them, and
    // its cost model samples them, in file order).
    std::vector<PairId> order = ds.candidates.pairs();
    Rng rng(args.seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    CandidateSet shuffled;
    for (const PairId& p : order) shuffled.Add(p);
    s = SaveCandidatesCsv(shuffled, nullptr, paths.pairs);
  } else if (s.ok()) {
    s = SaveCandidatesCsv(ds.candidates, &ds.labels, paths.pairs);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return 1;
  }

  if (args.workload == "serve_explore") {
    // The stage replay's function is an episode's final one.
    FeatureCatalog catalog(ds.a.schema(), ds.b.schema());
    Result<MatchingFunction> fn =
        ParseMatchingFunction(Join(ServeRules(), "\n"), catalog);
    s = fn.ok() ? SaveRulesFile(*fn, catalog, paths.rules) : fn.status();
  } else {
    // The rule sets are fixed, like the paper's one Products rule set: they
    // are generated from a reference corpus with a fixed seed, so runs with
    // different seeds do comparable work. (Thresholds drawn from each
    // seed's own corpus flip discrete features such as exact_match between
    // always-true and rarely-true, which moved batch_match's job time by
    // 25 % between seeds.) The seed moves the corpus the rules run on and
    // every edit script.
    DatasetProfile reference = profile;
    reference.seed = kReferenceSeed;
    const GeneratedDataset ref = GenerateDataset(reference);
    FeatureCatalog catalog(ref.a.schema(), ref.b.schema());
    catalog.InternAllSameAttribute();
    PairContext ctx(ref.a, ref.b, catalog);
    Rng rng(kReferenceSeed);
    const CandidateSet sample = SamplePairs(ref.candidates, 0.01, rng, 100);
    RuleGeneratorConfig config;
    // Paper Table 2: products uses 32 of its features (as bench_common.h).
    config.feature_pool = 32;
    config.seed = kReferenceSeed;
    if (args.workload == "batch_match") {
      // Default thresholds, the paper's 255-rule Products rule-set size,
      // drawn from the features that separate pairs: where most sampled
      // pairs share a feature's minimum value (exact_match on free text),
      // a lower bound at a default quantile is "f >= min", always true, and
      // the rule set would match every pair, so the oracle could not catch
      // a false match.
      FeatureCatalog separating(ref.a.schema(), ref.b.schema());
      for (FeatureId f = 0; f < catalog.size(); ++f) {
        size_t at_min = 0;
        double min = 0;
        for (size_t i = 0; i < sample.size(); ++i) {
          const double v = ctx.ComputeFeature(f, sample.pair(i));
          if (i == 0 || v < min) {
            min = v;
            at_min = 0;
          }
          at_min += v == min;
        }
        if (2 * at_min < sample.size()) separating.Intern(catalog.feature(f));
      }
      PairContext sep_ctx(ref.a, ref.b, separating);
      config.num_rules = 255;
      s = SaveRulesFile(RuleGenerator(sep_ctx, sample, config).Generate(),
                        separating, paths.rules);
    } else {
      // The selective rare-match regime of bench_block: thresholds at the
      // 0.97-0.999 quantiles, lower bounds only.
      config.quantile_lo = 0.97;
      config.quantile_hi = 0.999;
      config.upper_bound_fraction = 0.0;
      config.num_rules = 30;
      s = SaveRulesFile(RuleGenerator(ctx, sample, config).Generate(),
                        catalog, paths.rules);
      config.num_rules = 256;
      config.seed = kReferenceSeed + 1;
      if (s.ok()) {
        s = SaveRulesFile(RuleGenerator(ctx, sample, config).Generate(),
                          catalog, paths.pool);
      }
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("gen %s: %zu x %zu rows, %zu pairs\n", args.workload.c_str(),
              ds.a.num_rows(), ds.b.num_rows(), ds.candidates.size());
  return 0;
}

Status LoadCorpus(const InputPaths& paths, Tracer* tracer, Corpus* out) {
  ScopedSpan load(tracer, "data.load");
  Result<Table> a = [&] {
    ScopedSpan s(tracer, "data.load.table_a");
    return LoadTableCsv(paths.a);
  }();
  if (!a.ok()) return a.status();
  Result<Table> b = [&] {
    ScopedSpan s(tracer, "data.load.table_b");
    return LoadTableCsv(paths.b);
  }();
  if (!b.ok()) return b.status();
  Result<LoadedCandidates> pairs = [&] {
    ScopedSpan s(tracer, "data.load.pairs");
    return LoadCandidatesCsv(paths.pairs);
  }();
  if (!pairs.ok()) return pairs.status();
  out->a = std::move(*a);
  out->b = std::move(*b);
  out->pairs = std::move(pairs->candidates);
  return Status::Ok();
}

}  // namespace perfbench
