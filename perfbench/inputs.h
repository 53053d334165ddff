#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/block/candidate_pairs.h"
#include "src/data/table.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace perfbench {

/// Files of one run directory, written by `gen` from the seed.
struct InputPaths {
  explicit InputPaths(const std::string& dir)
      : a(dir + "/a.csv"),
        b(dir + "/b.csv"),
        pairs(dir + "/pairs.csv"),
        rules(dir + "/rules.rules"),
        pool(dir + "/pool.rules") {}
  std::string a, b, pairs;
  std::string rules;  ///< the workload's starting rule set
  std::string pool;   ///< edit_session: rules and predicates to add
};

/// Scale of the products corpus (paper Table 2 = 1.0) per workload.
double CorpusScale(const std::string& workload, bool tiny);

/// Generator seed of a workload's corpus for a benchmark seed (also passed
/// to `emdbg_serve --seed`).
uint64_t CorpusSeed(const std::string& workload, uint64_t seed);

/// serve_explore: the rules as DSL lines ("name: predicate"), the
/// starting rule first, then the rules an episode adds.
std::vector<std::string> ServeRules();

/// `gen`: writes the seeded corpus and rule sets of one workload.
int RunGen(const Args& args);

/// The corpus as a workload loads it: both tables and the candidate
/// pairs, read with the program's CSV loaders (one span per call).
struct Corpus {
  emdbg::Table a;
  emdbg::Table b;
  emdbg::CandidateSet pairs;
};
emdbg::Status LoadCorpus(const InputPaths& paths, Tracer* tracer,
                         Corpus* out);

/// Traced runs: an in-process replay of emdbg_match's public-call sequence
/// (load, prewarm, cost model, ordering, engine choice, cold and warm
/// match, write) over the workload's own corpus and starting rules, plus a
/// per-similarity-function kernel probe. Fills the per-layer metrics every
/// workload reports. `expected_matches` (may be null) is the match bitmap
/// the replay must reproduce.
void ReplayStages(const Args& args, const emdbg::Bitmap* expected_matches,
                  Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
