#ifndef EMDBG_CORE_COST_MODEL_H_
#define EMDBG_CORE_COST_MODEL_H_

#include <unordered_map>
#include <vector>

#include "src/core/matching_function.h"
#include "src/core/pair_context.h"

namespace emdbg {

/// Map from feature to its probability of being present in the memo — the
/// α(f, ·) values of Sec. 4.4.4 / cache(f, ·) of Sec. 5.4.1. Absent
/// features have probability 0.
using CacheProbabilities = std::unordered_map<FeatureId, double>;

/// Sampling-based cost model (Sec. 4.4): measures per-feature computation
/// cost and records feature values on a sample of candidate pairs, from
/// which predicate/rule selectivities and expected evaluation costs are
/// derived. The paper uses a 1% sample (Sec. 7.3).
///
/// All costs are microseconds per pair; selectivities are in [0, 1].
class CostModel {
 public:
  CostModel() = default;

  /// Builds a model by evaluating `features` over `sample` via `ctx`,
  /// timing each computation. The sample is retained so the model can be
  /// extended later (EnsureFeature) when the analyst's edits introduce new
  /// features.
  static CostModel Estimate(const std::vector<FeatureId>& features,
                            PairContext& ctx, const CandidateSet& sample);

  /// Convenience: estimates for exactly the features `fn` uses.
  static CostModel EstimateForFunction(const MatchingFunction& fn,
                                       PairContext& ctx,
                                       const CandidateSet& sample);

  /// Measures `feature` on the stored sample if not already present.
  void EnsureFeature(FeatureId feature, PairContext& ctx);

  bool HasFeature(FeatureId feature) const {
    return values_.count(feature) > 0;
  }

  size_t sample_size() const { return sample_.size(); }

  /// Average measured computation cost of a feature (µs), at least δ. An
  /// unmeasured feature costs kUnmeasuredCostUs, the same for every
  /// feature.
  double FeatureCost(FeatureId feature) const;

  /// FeatureCost of a feature not measured on the sample (µs).
  static constexpr double kUnmeasuredCostUs = 2.0;

  /// Memo lookup cost δ (µs), measured at Estimate() time.
  double lookup_cost_us() const { return lookup_cost_us_; }
  void set_lookup_cost_us(double v) { lookup_cost_us_ = v; }

  // ---- Selectivities (estimated exactly over the sample). ----

  /// sel(p): fraction of sample pairs for which `p` is true.
  double PredicateSelectivity(const Predicate& p) const;

  /// sel(⋀ preds): joint selectivity over the sample.
  double JointSelectivity(const std::vector<Predicate>& preds) const;

  /// sel(r) = sel of the conjunction of all its predicates.
  double RuleSelectivity(const Rule& r) const;

  /// Joint selectivity of the first `prefix_len` predicates of `r` in its
  /// current order — the weights of Eq. 1/3.
  double PrefixSelectivity(const Rule& r, size_t prefix_len) const;

  /// All prefix selectivities of `r` in one sample pass:
  /// out[k] = PrefixSelectivity(r, k) for k = 0..r.size().
  std::vector<double> PrefixSelectivities(const Rule& r) const;

  /// sel(prev(f, r)) of Sec. 5.4.1: joint selectivity of the predicates
  /// positioned before the first predicate on `f` in `r`'s current order —
  /// the probability that `f` is reached when `r` is evaluated.
  double ReachProbability(const Rule& r, FeatureId f) const;

  // ---- Expected costs (per pair, µs). ----

  /// Eq. 1/3: early-exit cost of `r` in its current predicate order, every
  /// feature computed fresh (no memo). Repeated predicates on the same
  /// feature within the rule still pay δ only (Lemma 2's c, δ pattern).
  double RuleCostNoMemo(const Rule& r) const;

  /// Memo-aware expected cost of `r` given the current cache
  /// probabilities (Sec. 4.4.4, Eq. 2): first predicate on feature f pays
  /// (1-α)·cost(f) + α·δ, later predicates on f pay δ.
  double RuleCostWithCache(const Rule& r,
                           const CacheProbabilities& cache) const;

  /// α update after executing `r` (Sec. 4.4.4):
  /// α(f, r) = α + (1-α)·ReachProbability(r, f) for every f in r.
  void UpdateCacheAfterRule(const Rule& r, CacheProbabilities& cache) const;

  /// Eq. 4: expected per-pair cost of the whole function with early exit,
  /// no memo. Rule-reach probabilities are computed exactly on the sample.
  double FunctionCostNoMemo(const MatchingFunction& fn) const;

  /// Sec. 4.4.4 model: expected per-pair cost with early exit + dynamic
  /// memoing, using the α recursion (this is what Fig. 5A plots as the
  /// model estimate).
  double FunctionCostWithMemo(const MatchingFunction& fn) const;

  /// Exact replay of Algorithm 4 on the sample (per-pair memo, early
  /// exit); a tighter estimate than the analytic α model, used for
  /// validation.
  double SimulatedCostWithMemo(const MatchingFunction& fn) const;

  /// Predicted wall time in ms for `num_pairs` pairs.
  double EstimateRuntimeMs(const MatchingFunction& fn, size_t num_pairs,
                           bool with_memo) const;

  /// Per-sample-pair truth of `r` (all predicates pass). Exposed for the
  /// optimizers' exact reach computation.
  std::vector<char> RuleTruthOnSample(const Rule& r) const;

 private:
  explicit CostModel(CandidateSet sample) : sample_(std::move(sample)) {}

  /// Measures δ by timing dense-memo lookups.
  void MeasureLookupCost();

  /// Pseudo-random but deterministic fallback for predicates on
  /// unmeasured features: "true" on about half the sample, keyed on
  /// (sample index, feature) so joint queries stay consistent.
  static bool FallbackPass(size_t sample_index, const Predicate& p);

  /// The feature's recorded sample values, or null when unmeasured. The
  /// selectivity scans resolve it once per predicate, not per sample pair.
  const std::vector<float>* ValuesOf(FeatureId feature) const;

  /// Truth of `p` on sample pair `sample_index`, given ValuesOf(p.feature).
  static bool PredicatePasses(const Predicate& p,
                              const std::vector<float>* values,
                              size_t sample_index);

  CandidateSet sample_;
  std::unordered_map<FeatureId, std::vector<float>> values_;
  std::unordered_map<FeatureId, double> cost_us_;
  double lookup_cost_us_ = 0.02;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_COST_MODEL_H_
