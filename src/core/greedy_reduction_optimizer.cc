#include "src/core/greedy_reduction_optimizer.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/core/ordering.h"
#include "src/core/rule_profile.h"

namespace emdbg {

// reduction(r) = Σ_{r' remaining, r'≠r} Σ_{f shared} contribution(r', r, f)
// with contribution(r', r, f) = reach(r', f) · Δ(f, r) · (cost(f) − δ)
// and Δ(f, r) = (1 − cache(f)) · reach(r, f).
//
// The sum decomposes per feature: with S(f) = Σ_{r' remaining ∋ f}
// reach(r', f),
//
//   reduction(r) = Σ_{f ∈ feature(r)} (1 − cache(f)) · reach(r, f) ·
//                  (cost(f) − δ) · (S(f) − reach(r, f)).
//
// Maintaining S(f) incrementally makes each greedy step O(n · preds)
// instead of O(n² · preds).
std::vector<size_t> GreedyReductionOrder(const MatchingFunction& fn,
                                         const CostModel& model) {
  const size_t n = fn.num_rules();
  std::vector<RuleProfile> profiles;
  profiles.reserve(n);
  for (const Rule& r : fn.rules()) {
    profiles.push_back(RuleProfile::Build(r, model));
  }
  const double lookup = model.lookup_cost_us();

  // Per-feature state, indexed densely by FeatureId: savings (cost(f) − δ,
  // clamped), remaining-reach sums S(f) and cache probabilities α(f). The
  // greedy step reads it for every candidate rule and feature, so no hash
  // lookups there.
  size_t num_features = 0;
  for (const RuleProfile& p : profiles) {
    for (const auto& [f, reach] : p.feature_reach) {
      num_features = std::max<size_t>(num_features, size_t{f} + 1);
    }
  }
  std::vector<double> savings(num_features, 0.0);
  std::vector<double> reach_sum(num_features, 0.0);
  std::vector<double> alpha(num_features, 0.0);
  for (const RuleProfile& p : profiles) {
    for (const auto& [f, reach] : p.feature_reach) {
      savings[f] = std::max(model.FeatureCost(f) - lookup, 0.0);
      reach_sum[f] += reach;
    }
  }

  auto reduction_of = [&](const RuleProfile& p) {
    double total = 0.0;
    for (const auto& [f, reach] : p.feature_reach) {
      const double partner_reach = reach_sum[f] - reach;
      if (partner_reach <= 0.0) continue;
      total += (1.0 - alpha[f]) * reach * savings[f] * partner_reach;
    }
    return total;
  };

  std::vector<size_t> order;
  order.reserve(n);
  std::vector<char> emitted(n, 0);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_reduction = -1.0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (emitted[i]) continue;
      const double reduction = reduction_of(profiles[i]);
      // Max reduction; ties broken by the Algorithm 5 metric (cheaper
      // rule first). The cost is only computed on ties.
      if (reduction > best_reduction) {
        best_reduction = reduction;
        best_cost = profiles[i].CostWithCache(alpha, lookup);
        best = i;
      } else if (reduction == best_reduction) {
        const double cost = profiles[i].CostWithCache(alpha, lookup);
        if (cost < best_cost) {
          best_cost = cost;
          best = i;
        }
      }
    }
    emitted[best] = 1;
    order.push_back(best);
    // The emitted rule leaves the "remaining" set and warms the cache.
    for (const auto& [f, reach] : profiles[best].feature_reach) {
      reach_sum[f] -= reach;
    }
    profiles[best].UpdateCache(alpha);
  }
  return order;
}

void ApplyGreedyReductionOrder(MatchingFunction& fn,
                               const CostModel& model) {
  OrderAllRulePredicates(fn, model);
  fn.PermuteRules(GreedyReductionOrder(fn, model));
}

}  // namespace emdbg
