#ifndef EMDBG_CORE_RULE_PROFILE_H_
#define EMDBG_CORE_RULE_PROFILE_H_

#include <unordered_map>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/rule.h"

namespace emdbg {

/// Precomputed per-rule quantities the greedy optimizers (Algorithms 5/6)
/// query many times: prefix selectivities, per-predicate feature costs,
/// and per-feature reach probabilities. Building a profile costs one pass
/// over the sample; afterwards cost/reduction evaluations are O(#preds)
/// with no sample scans.
struct RuleProfile {
  /// prefix_sel[k] = sel(p_0 ∧ ... ∧ p_{k-1}) in the rule's current
  /// predicate order (prefix_sel[0] = 1).
  std::vector<double> prefix_sel;
  /// Feature of each predicate.
  std::vector<FeatureId> feature;
  /// Whether predicate k is the first on its feature within the rule.
  std::vector<char> first_on_feature;
  /// Measured cost of each predicate's feature (µs).
  std::vector<double> feature_cost;
  /// Distinct features with their reach probability (sel of everything
  /// ordered before the feature's first predicate — sel(prev(f, r))).
  std::vector<std::pair<FeatureId, double>> feature_reach;

  static RuleProfile Build(const Rule& r, const CostModel& model) {
    RuleProfile p;
    const size_t m = r.size();
    p.prefix_sel.reserve(m);
    p.feature.reserve(m);
    p.first_on_feature.reserve(m);
    p.feature_cost.reserve(m);
    std::unordered_map<FeatureId, char> seen;
    const std::vector<double> prefixes = model.PrefixSelectivities(r);
    for (size_t k = 0; k < m; ++k) {
      const Predicate& pred = r.predicate(k);
      const double reach = prefixes[k];
      p.prefix_sel.push_back(reach);
      p.feature.push_back(pred.feature);
      p.feature_cost.push_back(model.FeatureCost(pred.feature));
      const bool first = seen.insert({pred.feature, 1}).second;
      p.first_on_feature.push_back(first ? 1 : 0);
      if (first) p.feature_reach.emplace_back(pred.feature, reach);
    }
    return p;
  }

  /// Memo-aware expected cost of the rule under `cache` — identical to
  /// CostModel::RuleCostWithCache, without sample scans.
  double CostWithCache(const CacheProbabilities& cache,
                       double lookup_cost_us) const {
    return CostWith(
        [&cache](FeatureId f) {
          const auto it = cache.find(f);
          return it == cache.end() ? 0.0 : it->second;
        },
        lookup_cost_us);
  }

  /// The same cost with the cache probabilities held densely: alpha[f] is
  /// cache(f) for every feature of the rule.
  double CostWithCache(const std::vector<double>& alpha,
                       double lookup_cost_us) const {
    return CostWith([&alpha](FeatureId f) { return alpha[f]; },
                    lookup_cost_us);
  }

  /// Advances `cache` as if this rule executed (the α recursion). `Cache`
  /// is CacheProbabilities or a dense std::vector<double> indexed by
  /// FeatureId that covers the rule's features.
  template <typename Cache>
  void UpdateCache(Cache& cache) const {
    for (const auto& [f, reach] : feature_reach) {
      double& alpha = cache[f];
      alpha = alpha + (1.0 - alpha) * reach;
    }
  }

 private:
  template <typename AlphaOf>
  double CostWith(AlphaOf alpha_of, double lookup_cost_us) const {
    double cost = 0.0;
    for (size_t k = 0; k < prefix_sel.size(); ++k) {
      double acquire;
      if (!first_on_feature[k]) {
        acquire = lookup_cost_us;
      } else {
        const double alpha = alpha_of(feature[k]);
        acquire =
            (1.0 - alpha) * feature_cost[k] + alpha * lookup_cost_us;
      }
      cost += prefix_sel[k] * acquire;
    }
    return cost;
  }
};

}  // namespace emdbg

#endif  // EMDBG_CORE_RULE_PROFILE_H_
