#include "src/text/id_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/text/jaro.h"

namespace emdbg {

std::vector<TokenId> InternDocIds(const TokenList& tokens,
                                  TokenInterner& interner) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(interner.Intern(t));
  return ids;
}

std::vector<TokenId> SortedUniqueIds(std::span<const TokenId> doc) {
  std::vector<TokenId> out(doc.begin(), doc.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

IdTfVector MakeIdTfVector(std::span<const TokenId> doc,
                          const std::vector<uint32_t>& rank) {
  IdTfVector out;
  std::vector<TokenId> lex(doc.begin(), doc.end());
  std::sort(lex.begin(), lex.end(), [&rank](TokenId x, TokenId y) {
    return rank[x] < rank[y];
  });
  for (size_t i = 0; i < lex.size();) {
    size_t j = i;
    while (j < lex.size() && lex[j] == lex[i]) ++j;
    out.entries.emplace_back(lex[i], static_cast<uint32_t>(j - i));
    i = j;
  }
  // Same accumulation order and operand types as CosineSimilarity's
  // "norm += double(f) * f" loop over the lex-ordered tf map.
  for (const auto& [id, count] : out.entries) {
    out.norm_sq += static_cast<double>(count) * count;
  }
  return out;
}

IdWeightVector MakeIdWeightVector(const IdTfVector& tf,
                                  std::span<const double> idf_by_id) {
  // Mirrors TfIdfModel::Vectorize: weights and the norm accumulate over
  // entries in lexicographic term order, then one multiply per entry.
  IdWeightVector out;
  out.entries.reserve(tf.entries.size());
  double norm_sq = 0.0;
  for (const auto& [id, count] : tf.entries) {
    const double w = static_cast<double>(count) * idf_by_id[id];
    out.entries.emplace_back(id, w);
    norm_sq += w * w;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [id, w] : out.entries) w *= inv;
  }
  return out;
}

namespace {

/// Index of the first element >= key in [lo, n), by exponential then binary
/// search — O(log gap) instead of O(log n) when matches cluster.
size_t Gallop(const TokenId* data, size_t lo, size_t n, TokenId key) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && data[hi] < key) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(
      std::lower_bound(data + lo, data + hi, key) - data);
}

size_t GallopIntersectionSize(std::span<const TokenId> small,
                              std::span<const TokenId> large) {
  size_t count = 0;
  size_t j = 0;
  for (const TokenId key : small) {
    j = Gallop(large.data(), j, large.size(), key);
    if (j == large.size()) break;
    if (large[j] == key) {
      ++count;
      ++j;
    }
  }
  return count;
}

}  // namespace

size_t IdIntersectionSize(std::span<const TokenId> a,
                          std::span<const TokenId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (b.size() / a.size() >= 16) return GallopIntersectionSize(a, b);
  // Branch-light linear merge: advance via comparison results instead of
  // three-way branching.
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i < na && j < nb) {
    const TokenId x = a[i];
    const TokenId y = b[j];
    count += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return count;
}

double IdJaccard(std::span<const TokenId> a, std::span<const TokenId> b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = IdIntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double IdDice(std::span<const TokenId> a, std::span<const TokenId> b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = IdIntersectionSize(a, b);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size());
}

double IdOverlap(std::span<const TokenId> a, std::span<const TokenId> b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  const size_t inter = IdIntersectionSize(a, b);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double IdCosineTf(const IdTfVector& a, const IdTfVector& b,
                  const std::vector<uint32_t>& rank) {
  if (a.entries.empty() && b.entries.empty()) return 1.0;
  if (a.entries.empty() || b.entries.empty()) return 0.0;
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    const uint32_t ra = rank[a.entries[i].first];
    const uint32_t rb = rank[b.entries[j].first];
    if (ra == rb) {
      dot += static_cast<double>(a.entries[i].second) * b.entries[j].second;
      ++i;
      ++j;
    } else if (ra < rb) {
      ++i;
    } else {
      ++j;
    }
  }
  return std::min(1.0, dot / (std::sqrt(a.norm_sq) * std::sqrt(b.norm_sq)));
}

double IdTfIdfCosine(const IdWeightVector& a, const IdWeightVector& b,
                     const std::vector<uint32_t>& rank) {
  if (a.entries.empty() && b.entries.empty()) return 1.0;
  if (a.entries.empty() || b.entries.empty()) return 0.0;
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    const uint32_t ra = rank[a.entries[i].first];
    const uint32_t rb = rank[b.entries[j].first];
    if (ra == rb) {
      dot += a.entries[i].second * b.entries[j].second;
      ++i;
      ++j;
    } else if (ra < rb) {
      ++i;
    } else {
      ++j;
    }
  }
  return std::min(1.0, dot);
}

double IdSoftTfIdf(const IdWeightVector& a, const IdWeightVector& b,
                   const std::vector<uint32_t>& rank,
                   const TokenInterner& interner, double threshold) {
  if (a.entries.empty() && b.entries.empty()) return 1.0;
  if (a.entries.empty() || b.entries.empty()) return 0.0;
  // A fuzzy-only term of a is held fixed and b's terms scan it:
  // JW(term_b, term_a) == JW(term_a, term_b) bit for bit (jaro.h), so the
  // scan yields the string path's similarities in its order. b's bytes
  // are cleared once, on the first fuzzy term.
  JaroFixedSide side;
  bool b_cleared = false;
  double score = 0.0;
  for (const auto& [id_a, weight_a] : a.entries) {
    // Exact-match shortcut: if a's term also occurs in b, the best partner
    // is that term with similarity exactly 1.0 (Jaro-Winkler reaches 1.0
    // only on equal strings), so the string path's scan would end on the
    // same (sim, weight) pair.
    const uint32_t ra = rank[id_a];
    const auto it = std::lower_bound(
        b.entries.begin(), b.entries.end(), ra,
        [&rank](const std::pair<TokenId, double>& e, uint32_t key) {
          return rank[e.first] < key;
        });
    double best_sim = 0.0;
    double best_weight = 0.0;
    if (it != b.entries.end() && it->first == id_a) {
      best_sim = 1.0;
      best_weight = it->second;
    } else {
      const std::string_view term_a = interner.Text(id_a);
      const bool fixed =
          !term_a.empty() && term_a.size() <= JaroFixedSide::kMaxFixed;
      if (fixed) {
        if (!b_cleared) {
          for (const auto& entry : b.entries) {
            side.Clear(interner.Text(entry.first));
          }
          b_cleared = true;
        }
        side.Set(term_a);
      }
      for (const auto& [id_b, weight_b] : b.entries) {
        const std::string_view term_b = interner.Text(id_b);
        const double sim = fixed ? side.JaroWinkler(term_b)
                                 : JaroWinklerSimilarity(term_a, term_b);
        if (sim > best_sim || (sim == best_sim && weight_b > best_weight)) {
          best_sim = sim;
          best_weight = weight_b;
        }
      }
      if (fixed) side.Clear(term_a);
    }
    if (best_sim >= threshold) {
      score += weight_a * best_weight * best_sim;
    }
  }
  return std::min(score, 1.0);
}

double IdMongeElkan(const TokenList& a_tokens, const TokenList& b_tokens,
                    const TokenIds& a_ids, const TokenIds& b_ids) {
  const size_t n = a_tokens.size();
  const size_t m = b_tokens.size();
  if (n == 0 || m == 0) return n == 0 && m == 0 ? 1.0 : 0.0;
  // row_best[i] = max_j JW(a_i, b_j), the string path's a-to-b inner
  // loop; col_best is the same for one b_j against all of a. A token that
  // also occurs on the other side starts at exactly 1.0 = JW(t, t), the
  // largest value Jaro-Winkler takes.
  // Token lists rarely exceed 32 tokens: no heap allocation per pair.
  constexpr size_t kInlineRows = 32;
  double inline_rows[kInlineRows];
  std::vector<double> heap_rows;
  double* row_best = inline_rows;
  if (n > kInlineRows) {
    heap_rows.resize(n);
    row_best = heap_rows.data();
  }
  for (size_t i = 0; i < n; ++i) {
    row_best[i] = std::binary_search(b_ids.sorted.begin(),
                                     b_ids.sorted.end(), a_ids.doc[i])
                      ? 1.0
                      : 0.0;
  }
  JaroFixedSide side;
  for (const std::string& ta : a_tokens) side.Clear(ta);
  double sum_b = 0.0;
  for (size_t j = 0; j < m; ++j) {
    const std::string& tb = b_tokens[j];
    double col_best = std::binary_search(a_ids.sorted.begin(),
                                         a_ids.sorted.end(), b_ids.doc[j])
                          ? 1.0
                          : 0.0;
    const bool fixed = !tb.empty() && tb.size() <= JaroFixedSide::kMaxFixed;
    if (fixed) side.Set(tb);
    for (size_t i = 0; i < n; ++i) {
      // Neither maximum can move: skip the cell.
      if (col_best == 1.0 && row_best[i] == 1.0) continue;
      // One score feeds both directions: JW is symmetric bit for bit.
      const double jw = fixed ? side.JaroWinkler(a_tokens[i])
                              : JaroWinklerSimilarity(tb, a_tokens[i]);
      row_best[i] = std::max(row_best[i], jw);
      col_best = std::max(col_best, jw);
    }
    if (fixed) side.Clear(tb);
    sum_b += col_best;
  }
  // Each direction sums its maxima in token order, as the string path
  // does; max itself does not depend on the order the cells came in.
  double sum_a = 0.0;
  for (size_t i = 0; i < n; ++i) sum_a += row_best[i];
  return (sum_a / static_cast<double>(n) + sum_b / static_cast<double>(m)) /
         2.0;
}

}  // namespace emdbg
