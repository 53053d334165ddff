#ifndef EMDBG_TEXT_ID_KERNELS_H_
#define EMDBG_TEXT_ID_KERNELS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"

namespace emdbg {

/// Integer-id fast path for the set-family similarity kernels.
///
/// Every kernel here is a drop-in replacement for its string counterpart in
/// set_similarity/cosine/tfidf/soft_tfidf/monge_elkan and returns
/// *bit-identical* doubles: intersection kernels only exchange string
/// comparisons for integer comparisons (counts are exact), and the
/// floating-point kernels accumulate in byte-lexicographic token order —
/// exactly the order the string path inherits from std::map / sorted
/// vectors — via TokenInterner::LexRanks(). The differential tests in
/// tests/text/id_kernels_differential_test.cc enforce this for all 16
/// similarity functions.

/// Per-record token ids.
struct TokenIds {
  std::vector<TokenId> doc;     ///< document order, parallel to the TokenList
  std::vector<TokenId> sorted;  ///< sorted-unique by raw id value
};

/// Per-row id arrays of one (table, attribute) column, stored back to
/// back: row r's ids are ids[offsets[r], offsets[r + 1]). One allocation
/// per column, none per row.
struct IdColumn {
  std::vector<TokenId> ids;
  std::vector<uint32_t> offsets;  ///< rows + 1 entries once built

  bool built() const { return !offsets.empty(); }
  std::span<const TokenId> Row(uint32_t row) const {
    return {ids.data() + offsets[row], ids.data() + offsets[row + 1]};
  }
  /// Heap bytes held (capacities).
  size_t Bytes() const {
    return ids.capacity() * sizeof(TokenId) +
           offsets.capacity() * sizeof(uint32_t);
  }
};

/// Interns every token of `tokens` (mutating `interner`) and returns the
/// document-order id list.
std::vector<TokenId> InternDocIds(const TokenList& tokens,
                                  TokenInterner& interner);

/// Interns the tokens AlnumTokenize(text) returns, in document order, and
/// appends their ids to `out` — straight from the bytes, with no string per
/// token (`buf` is scratch reused across calls).
void InternWordIds(std::string_view text, TokenInterner& interner,
                   std::string& buf, std::vector<TokenId>& out);

/// Sorted-unique (by raw id value) copy of a document-order id list.
std::vector<TokenId> SortedUniqueIds(std::span<const TokenId> doc);

/// Most codes SortedQGramCodes writes for a value of `bytes` bytes.
constexpr size_t QGramCodeCapacity(size_t bytes) {
  return bytes == 0 ? 0 : bytes + 2;
}

/// The distinct 3-grams of QGramTokenize(text, 3) as 24-bit codes, sorted:
/// each gram of the '#'-padded, ASCII-lowered bytes packs as
/// (b0 << 16) | (b1 << 8) | b2 over its unsigned bytes. Equal grams give
/// equal codes and distinct grams distinct ones (a literal '#' is the pad
/// byte in both representations), so set sizes and intersections — and
/// Jaccard over them — equal TrigramSimilarity's, with no string and no
/// interning. Writes up to QGramCodeCapacity(text.size()) codes to `out`
/// and returns how many are distinct (the prefix holding them).
size_t SortedQGramCodes(std::string_view text, TokenId* out);

/// Term-frequency vector in byte-lexicographic token order (the order
/// std::map<std::string, int> iterates in), with the squared L2 norm
/// accumulated in that same order — matches CosineSimilarity's norm loop
/// bit-for-bit.
struct IdTfVector {
  std::vector<std::pair<TokenId, uint32_t>> entries;  ///< (id, count)
  double norm_sq = 0.0;
};

IdTfVector MakeIdTfVector(std::span<const TokenId> doc,
                          const std::vector<uint32_t>& rank);

/// L2-normalized TF-IDF weight vector in byte-lexicographic token order —
/// replicates TfIdfModel::Vectorize bit-for-bit given
/// idf_by_id[id] == model.Idf(interner.Text(id)).
struct IdWeightVector {
  std::vector<std::pair<TokenId, double>> entries;  ///< (id, weight)
};

IdWeightVector MakeIdWeightVector(const IdTfVector& tf,
                                  std::span<const double> idf_by_id);

/// |A ∩ B| over sorted-unique id arrays. Heavily skewed lengths take
/// galloping (exponential search) probes of the longer array. Otherwise
/// SSE2 builds compare 4x4 blocks (each a lane against every b lane
/// through three rotations of b, one popcount per block, then the block
/// with the smaller maximum advances) and finish with
/// IdIntersectionSizeScalar, which is all of it without SSE2. Both sets
/// are duplicate-free, so each match is counted in exactly one block pair.
size_t IdIntersectionSize(std::span<const TokenId> a,
                          std::span<const TokenId> b);

/// The branch-light linear merge alone: IdIntersectionSize's tail, and its
/// baseline and oracle in bench_kernels.
size_t IdIntersectionSizeScalar(std::span<const TokenId> a,
                                std::span<const TokenId> b);

/// Set-overlap kernels over sorted-unique id arrays; same empty-input
/// conventions as the string versions in set_similarity.h.
double IdJaccard(std::span<const TokenId> a, std::span<const TokenId> b);
double IdDice(std::span<const TokenId> a, std::span<const TokenId> b);
double IdOverlap(std::span<const TokenId> a, std::span<const TokenId> b);

/// Term-frequency cosine (CosineSimilarity) over prebuilt tf vectors.
double IdCosineTf(const IdTfVector& a, const IdTfVector& b,
                  const std::vector<uint32_t>& rank);

/// TF-IDF cosine (TfIdfModel::Similarity) over prebuilt weight vectors.
/// `a_empty`/`b_empty` are the emptiness of the underlying *token lists*
/// (weight vectors are empty exactly when the token lists are, but the
/// caller already knows and it keeps the contract explicit).
double IdTfIdfCosine(const IdWeightVector& a, const IdWeightVector& b,
                     const std::vector<uint32_t>& rank);

/// Soft TF-IDF (SoftTfIdfSimilarity) over prebuilt weight vectors. Exact
/// token matches short-circuit the inner Jaro-Winkler scan via a rank
/// binary search; a fuzzy-only term is held fixed (JaroFixedSide) and b's
/// terms, read from the interner, scan it in the string path's order.
double IdSoftTfIdf(const IdWeightVector& a, const IdWeightVector& b,
                   const std::vector<uint32_t>& rank,
                   const TokenInterner& interner, double threshold = 0.9);

/// Monge-Elkan (MongeElkanSimilarity, symmetric) in one pass over the
/// |a| x |b| token matrix: each cell's Jaro-Winkler is computed once and
/// feeds both a's row maximum and b's column maximum, which is exact
/// because Jaro-Winkler is symmetric bit for bit (jaro.h). A token that
/// also occurs on the other side (integer-id membership) starts at
/// exactly 1.0 = JW(t, t), the largest score, and a cell whose row and
/// column are both at 1.0 is skipped. b's per-byte masks are written once
/// per column (JaroFixedSide). Max does not depend on the order the cells
/// come in, and each direction sums its maxima in token order, so the
/// result is bit-identical to the two-pass string kernel. `*_doc` are the
/// document-order ids (token bytes read through interner.Text), `*_set`
/// their sorted-unique ids.
double IdMongeElkan(std::span<const TokenId> a_doc,
                    std::span<const TokenId> a_set,
                    std::span<const TokenId> b_doc,
                    std::span<const TokenId> b_set,
                    const TokenInterner& interner);

}  // namespace emdbg

#endif  // EMDBG_TEXT_ID_KERNELS_H_
