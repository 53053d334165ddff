#ifndef EMDBG_CORE_MATCHER_H_
#define EMDBG_CORE_MATCHER_H_

#include "src/block/candidate_pairs.h"
#include "src/core/match_result.h"
#include "src/core/matching_function.h"
#include "src/core/pair_context.h"
#include "src/util/cancellation.h"

namespace emdbg {

/// Interface of a batch matcher: applies a matching function to every
/// candidate pair. Implementations correspond to Algorithms 1-4 of the
/// paper (rudimentary, precomputation, early exit, early exit + dynamic
/// memoing).
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Evaluates `fn` over all pairs, checking `control` once per pair (or
  /// once per block, for the block engine). A
  /// cancelled or deadline-exceeded run returns a partial MatchResult
  /// (see match_result.h) instead of blocking until completion. The
  /// context supplies feature computation (and its id caches persist
  /// across calls).
  virtual MatchResult Run(const MatchingFunction& fn,
                          const CandidateSet& pairs, PairContext& ctx,
                          const RunControl& control) = 0;

  /// Uncontrolled convenience overload: runs to completion.
  MatchResult Run(const MatchingFunction& fn, const CandidateSet& pairs,
                  PairContext& ctx) {
    return Run(fn, pairs, ctx, RunControl());
  }

  /// Short name for reports ("R", "EE", "DM+EE", ...).
  virtual const char* name() const = 0;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_MATCHER_H_
