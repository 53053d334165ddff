#include "src/text/id_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/text/jaro.h"
#include "src/util/string_util.h"

namespace emdbg {

std::vector<TokenId> InternDocIds(const TokenList& tokens,
                                  TokenInterner& interner) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(interner.Intern(t));
  return ids;
}

void InternWordIds(std::string_view text, TokenInterner& interner,
                   std::string& buf, std::vector<TokenId>& out) {
  ForEachAlnumToken(text, buf, [&](std::string_view token) {
    out.push_back(interner.Intern(token));
  });
}

std::vector<TokenId> SortedUniqueIds(std::span<const TokenId> doc) {
  std::vector<TokenId> out(doc.begin(), doc.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t SortedQGramCodes(std::string_view text, TokenId* out) {
  if (text.empty()) return 0;
  constexpr TokenId kPad = '#';
  constexpr TokenId kMask = 0xffffff;
  // A rolling window over "##" + lower(text) + "##": one code per byte of
  // text, then two for the trailing pad.
  TokenId code = (kPad << 8) | kPad;
  size_t count = 0;
  for (const char c : text) {
    code = ((code << 8) | static_cast<unsigned char>(AsciiToLower(c))) & kMask;
    out[count++] = code;
  }
  for (int pad = 0; pad < 2; ++pad) {
    code = ((code << 8) | kPad) & kMask;
    out[count++] = code;
  }
  std::sort(out, out + count);
  return static_cast<size_t>(std::unique(out, out + count) - out);
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
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
#if defined(__SSE2__)
  // 4x4 blocks: a's lanes against b's lanes and three rotations of them
  // compare every pair; the OR marks the a lanes with a partner. The
  // block with the smaller maximum can meet no later element of the
  // other array, so it advances (both on a tie). Matches with an element
  // of an advanced block were counted in the block pair that retired it.
  const size_t na4 = a.size() & ~size_t{3};
  const size_t nb4 = b.size() & ~size_t{3};
  while (i < na4 && j < nb4) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
    const __m128i vb1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m128i vb2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i vb3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m128i eq = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, vb1)),
        _mm_or_si128(_mm_cmpeq_epi32(va, vb2), _mm_cmpeq_epi32(va, vb3)));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(eq)))));
    const TokenId a_max = a[i + 3];
    const TokenId b_max = b[j + 3];
    i += a_max <= b_max ? 4 : 0;
    j += b_max <= a_max ? 4 : 0;
  }
#endif
  return count + IdIntersectionSizeScalar(a.subspan(i), b.subspan(j));
}

size_t IdIntersectionSizeScalar(std::span<const TokenId> a,
                                std::span<const TokenId> b) {
  // Branch-light linear merge: advance via comparison results instead of
  // three-way branching.
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
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

double IdMongeElkan(std::span<const TokenId> a_doc,
                    std::span<const TokenId> a_set,
                    std::span<const TokenId> b_doc,
                    std::span<const TokenId> b_set,
                    const TokenInterner& interner) {
  const size_t n = a_doc.size();
  const size_t m = b_doc.size();
  if (n == 0 || m == 0) return n == 0 && m == 0 ? 1.0 : 0.0;
  // rows[i].best = max_j JW(a_i, b_j), the string path's a-to-b inner
  // loop; col_best is the same for one b_j against all of a. A token that
  // also occurs on the other side starts at exactly 1.0 = JW(t, t), the
  // largest value Jaro-Winkler takes. a's bytes are looked up once.
  // Token lists rarely exceed 32 tokens: no heap allocation per pair.
  struct Row {
    std::string_view text;
    double best;
  };
  constexpr size_t kInlineRows = 32;
  Row inline_rows[kInlineRows];
  std::vector<Row> heap_rows;
  Row* rows = inline_rows;
  if (n > kInlineRows) {
    heap_rows.resize(n);
    rows = heap_rows.data();
  }
  JaroFixedSide side;
  for (size_t i = 0; i < n; ++i) {
    rows[i].text = interner.Text(a_doc[i]);
    rows[i].best =
        std::binary_search(b_set.begin(), b_set.end(), a_doc[i]) ? 1.0 : 0.0;
    side.Clear(rows[i].text);
  }
  double sum_b = 0.0;
  for (size_t j = 0; j < m; ++j) {
    const std::string_view tb = interner.Text(b_doc[j]);
    double col_best =
        std::binary_search(a_set.begin(), a_set.end(), b_doc[j]) ? 1.0 : 0.0;
    const bool fixed = !tb.empty() && tb.size() <= JaroFixedSide::kMaxFixed;
    if (fixed) side.Set(tb);
    for (size_t i = 0; i < n; ++i) {
      // Neither maximum can move: skip the cell.
      if (col_best == 1.0 && rows[i].best == 1.0) continue;
      // One score feeds both directions: JW is symmetric bit for bit.
      const double jw = fixed ? side.JaroWinkler(rows[i].text)
                              : JaroWinklerSimilarity(tb, rows[i].text);
      rows[i].best = std::max(rows[i].best, jw);
      col_best = std::max(col_best, jw);
    }
    if (fixed) side.Clear(tb);
    sum_b += col_best;
  }
  // Each direction sums its maxima in token order, as the string path
  // does; max itself does not depend on the order the cells came in.
  double sum_a = 0.0;
  for (size_t i = 0; i < n; ++i) sum_a += rows[i].best;
  return (sum_a / static_cast<double>(n) + sum_b / static_cast<double>(m)) /
         2.0;
}

}  // namespace emdbg
