#include "src/core/cost_model.h"

#include <algorithm>
#include <unordered_set>

#include "src/core/memo.h"
#include "src/text/similarity_registry.h"
#include "src/util/stopwatch.h"

namespace emdbg {

CostModel CostModel::Estimate(const std::vector<FeatureId>& features,
                              PairContext& ctx, const CandidateSet& sample) {
  CostModel model(sample);
  model.MeasureLookupCost();
  for (const FeatureId f : features) model.EnsureFeature(f, ctx);
  return model;
}

CostModel CostModel::EstimateForFunction(const MatchingFunction& fn,
                                         PairContext& ctx,
                                         const CandidateSet& sample) {
  return Estimate(fn.UsedFeatures(), ctx, sample);
}

void CostModel::EnsureFeature(FeatureId feature, PairContext& ctx) {
  if (values_.count(feature) > 0) return;
  std::vector<float>& vals = values_[feature];
  vals.reserve(sample_.size());
  Stopwatch timer;
  for (size_t s = 0; s < sample_.size(); ++s) {
    vals.push_back(
        static_cast<float>(ctx.ComputeFeature(feature, sample_.pair(s))));
  }
  const double total_us = timer.ElapsedMicros();
  cost_us_[feature] =
      sample_.size() == 0 ? 0.0
                          : total_us / static_cast<double>(sample_.size());
}

void CostModel::MeasureLookupCost() {
  // Time dense-memo lookups over a small matrix; this is δ in the model.
  // The probes walk each feature column in order, a sequential read like
  // the columns the engines gather.
  constexpr size_t kPairs = 256;
  constexpr size_t kFeatures = 8;
  constexpr size_t kRounds = 40;
  DenseMemo memo(kPairs, kFeatures);
  for (size_t f = 0; f < kFeatures; ++f) {
    for (size_t p = 0; p < kPairs; ++p) {
      memo.Store(p, static_cast<FeatureId>(f), 0.5);
    }
  }
  double sink = 0.0;
  Stopwatch timer;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t f = 0; f < kFeatures; ++f) {
      for (size_t p = 0; p < kPairs; ++p) {
        double v = 0.0;
        memo.Lookup(p, static_cast<FeatureId>(f), &v);
        sink += v;
      }
    }
  }
  const double us = timer.ElapsedMicros();
  if (sink < 0.0) return;  // keep `sink` alive
  lookup_cost_us_ =
      std::max(1e-4, us / static_cast<double>(kRounds * kPairs * kFeatures));
}

double CostModel::FeatureCost(FeatureId feature) const {
  const auto it = cost_us_.find(feature);
  if (it != cost_us_.end()) return std::max(it->second, lookup_cost_us_);
  // Unmeasured (no EnsureFeature yet): one fixed cost for every feature.
  return kUnmeasuredCostUs;
}

bool CostModel::FallbackPass(size_t sample_index, const Predicate& p) {
  uint64_t h = (static_cast<uint64_t>(sample_index) << 32) ^
               (static_cast<uint64_t>(p.feature) * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return (h & 1) == 0;
}

const std::vector<float>* CostModel::ValuesOf(FeatureId feature) const {
  const auto it = values_.find(feature);
  return it == values_.end() ? nullptr : &it->second;
}

bool CostModel::PredicatePasses(const Predicate& p,
                                const std::vector<float>* values,
                                size_t sample_index) {
  if (values == nullptr) return FallbackPass(sample_index, p);
  return p.Test(static_cast<double>((*values)[sample_index]));
}

double CostModel::PredicateSelectivity(const Predicate& p) const {
  if (sample_.empty()) return 0.5;
  const std::vector<float>* values = ValuesOf(p.feature);
  size_t pass = 0;
  for (size_t s = 0; s < sample_.size(); ++s) {
    if (PredicatePasses(p, values, s)) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(sample_.size());
}

double CostModel::JointSelectivity(
    const std::vector<Predicate>& preds) const {
  if (sample_.empty()) return preds.empty() ? 1.0 : 0.5;
  std::vector<const std::vector<float>*> values;
  values.reserve(preds.size());
  for (const Predicate& p : preds) values.push_back(ValuesOf(p.feature));
  size_t pass = 0;
  for (size_t s = 0; s < sample_.size(); ++s) {
    bool all = true;
    for (size_t k = 0; k < preds.size(); ++k) {
      if (!PredicatePasses(preds[k], values[k], s)) {
        all = false;
        break;
      }
    }
    if (all) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(sample_.size());
}

double CostModel::RuleSelectivity(const Rule& r) const {
  return JointSelectivity(r.predicates());
}

double CostModel::PrefixSelectivity(const Rule& r, size_t prefix_len) const {
  prefix_len = std::min(prefix_len, r.size());
  std::vector<Predicate> prefix(r.predicates().begin(),
                                r.predicates().begin() +
                                    static_cast<ptrdiff_t>(prefix_len));
  return JointSelectivity(prefix);
}

std::vector<double> CostModel::PrefixSelectivities(const Rule& r) const {
  std::vector<double> out(r.size() + 1, 1.0);
  if (sample_.empty()) {
    for (size_t k = 1; k <= r.size(); ++k) out[k] = 0.5;
    return out;
  }
  std::vector<char> alive(sample_.size(), 1);
  size_t alive_count = sample_.size();
  for (size_t k = 0; k < r.size(); ++k) {
    const Predicate& p = r.predicate(k);
    const std::vector<float>* values = ValuesOf(p.feature);
    for (size_t s = 0; s < sample_.size(); ++s) {
      if (alive[s] && !PredicatePasses(p, values, s)) {
        alive[s] = 0;
        --alive_count;
      }
    }
    out[k + 1] = static_cast<double>(alive_count) /
                 static_cast<double>(sample_.size());
  }
  return out;
}

double CostModel::ReachProbability(const Rule& r, FeatureId f) const {
  std::vector<Predicate> before;
  for (const Predicate& p : r.predicates()) {
    if (p.feature == f) break;
    before.push_back(p);
  }
  return JointSelectivity(before);
}

double CostModel::RuleCostNoMemo(const Rule& r) const {
  double cost = 0.0;
  std::unordered_set<FeatureId> seen;
  for (size_t k = 0; k < r.size(); ++k) {
    const Predicate& p = r.predicate(k);
    const double reach = PrefixSelectivity(r, k);
    // Within one rule, a second predicate on the same feature can reuse
    // the just-computed value even without cross-rule memoing (Lemma 2's
    // c, δ pattern).
    const double acquire =
        seen.count(p.feature) > 0 ? lookup_cost_us_ : FeatureCost(p.feature);
    seen.insert(p.feature);
    cost += reach * acquire;
  }
  return cost;
}

double CostModel::RuleCostWithCache(const Rule& r,
                                    const CacheProbabilities& cache) const {
  double cost = 0.0;
  std::unordered_set<FeatureId> seen;
  for (size_t k = 0; k < r.size(); ++k) {
    const Predicate& p = r.predicate(k);
    const double reach = PrefixSelectivity(r, k);
    double acquire;
    if (seen.count(p.feature) > 0) {
      acquire = lookup_cost_us_;
    } else {
      const auto it = cache.find(p.feature);
      const double alpha = it == cache.end() ? 0.0 : it->second;
      acquire = (1.0 - alpha) * FeatureCost(p.feature) +
                alpha * lookup_cost_us_;
    }
    seen.insert(p.feature);
    cost += reach * acquire;
  }
  return cost;
}

void CostModel::UpdateCacheAfterRule(const Rule& r,
                                     CacheProbabilities& cache) const {
  for (const FeatureId f : r.Features()) {
    double& alpha = cache[f];
    alpha = alpha + (1.0 - alpha) * ReachProbability(r, f);
  }
}

std::vector<char> CostModel::RuleTruthOnSample(const Rule& r) const {
  std::vector<char> truth(sample_.size(), 1);
  std::vector<const std::vector<float>*> values;
  values.reserve(r.size());
  for (const Predicate& p : r.predicates()) {
    values.push_back(ValuesOf(p.feature));
  }
  for (size_t s = 0; s < sample_.size(); ++s) {
    for (size_t k = 0; k < r.size(); ++k) {
      if (!PredicatePasses(r.predicate(k), values[k], s)) {
        truth[s] = 0;
        break;
      }
    }
  }
  return truth;
}

double CostModel::FunctionCostNoMemo(const MatchingFunction& fn) const {
  if (sample_.empty()) return 0.0;
  // reach[s] = 1 while no earlier rule fired for sample pair s.
  std::vector<char> reach(sample_.size(), 1);
  double cost = 0.0;
  for (const Rule& r : fn.rules()) {
    const double reach_prob =
        static_cast<double>(std::count(reach.begin(), reach.end(), 1)) /
        static_cast<double>(sample_.size());
    cost += reach_prob * RuleCostNoMemo(r);
    const std::vector<char> truth = RuleTruthOnSample(r);
    for (size_t s = 0; s < sample_.size(); ++s) {
      if (truth[s]) reach[s] = 0;
    }
  }
  return cost;
}

double CostModel::FunctionCostWithMemo(const MatchingFunction& fn) const {
  if (sample_.empty()) return 0.0;
  std::vector<char> reach(sample_.size(), 1);
  CacheProbabilities cache;
  double cost = 0.0;
  for (const Rule& r : fn.rules()) {
    const double reach_prob =
        static_cast<double>(std::count(reach.begin(), reach.end(), 1)) /
        static_cast<double>(sample_.size());
    cost += reach_prob * RuleCostWithCache(r, cache);
    UpdateCacheAfterRule(r, cache);
    const std::vector<char> truth = RuleTruthOnSample(r);
    for (size_t s = 0; s < sample_.size(); ++s) {
      if (truth[s]) reach[s] = 0;
    }
  }
  return cost;
}

double CostModel::SimulatedCostWithMemo(const MatchingFunction& fn) const {
  if (sample_.empty()) return 0.0;
  double total = 0.0;
  std::unordered_set<FeatureId> computed;
  for (size_t s = 0; s < sample_.size(); ++s) {
    computed.clear();
    for (const Rule& r : fn.rules()) {
      bool rule_true = true;
      for (const Predicate& p : r.predicates()) {
        if (computed.count(p.feature) > 0) {
          total += lookup_cost_us_;
        } else {
          total += FeatureCost(p.feature);
          computed.insert(p.feature);
        }
        if (!PredicatePasses(p, ValuesOf(p.feature), s)) {
          rule_true = false;
          break;
        }
      }
      if (rule_true && !r.empty()) break;
    }
  }
  return total / static_cast<double>(sample_.size());
}

double CostModel::EstimateRuntimeMs(const MatchingFunction& fn,
                                    size_t num_pairs, bool with_memo) const {
  const double per_pair_us =
      with_memo ? FunctionCostWithMemo(fn) : FunctionCostNoMemo(fn);
  return per_pair_us * static_cast<double>(num_pairs) / 1000.0;
}

}  // namespace emdbg
