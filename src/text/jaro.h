#ifndef EMDBG_TEXT_JARO_H_
#define EMDBG_TEXT_JARO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace emdbg {

/// Jaro similarity in [0,1]. Two empty strings have similarity 1; one empty
/// string against a non-empty one has similarity 0.
///
/// Computed as a bit-parallel match search: b's per-byte position masks are
/// built once per call, and each a[i] takes the lowest unmatched bit of
/// `mask[a[i]] & window(i)` — exactly the textbook loop's first-free greedy
/// match, so the match count, the transpositions and the returned double
/// equal JaroSimilarityScalar's bit for bit. The search runs for |b| <= 64
/// in registers and one uninitialized stack table (no heap, no memset);
/// a longer b, rare in practice (titles past 64 bytes), takes the scalar
/// loop.
///
/// Symmetry: JaroSimilarity(a, b) and JaroSimilarity(b, a) are the same
/// double, bit for bit (and so are the Jaro-Winkler scores). Matching
/// only pairs equal bytes, so the greedy search splits into one
/// independent search per byte value c. Let p and q be the heads of a's
/// and b's ascending positions of c that are still in play, and w the
/// window (a function of max(|a|, |b|), so the same both ways). The
/// first-free greedy match is a two-pointer merge over those heads:
///   * q < p - w: q lies below p's window and below every later one, so
///     it is dropped;
///   * p < q - w: every free position of c in b lies above p's window,
///     so p is dropped unmatched;
///   * otherwise |p - q| <= w, q is the lowest free position in p's
///     window, and p matches q.
/// The mirrored search (b's positions scanning a's) takes the same step
/// on the same two heads: its "drop p" is the first case seen from q, its
/// "drop q" the second, and |p - q| <= w is symmetric. So both orders
/// match the same position pairs: the same match count, the same matched
/// positions in a and in b, and so the same transpositions (the k-th
/// matched byte of a against the k-th of b). JaroFromCounts adds
/// m/|a| + m/|b|, and IEEE addition is commutative; the Winkler prefix is
/// the common prefix of both. tests/text/char_kernels_differential_test.cc
/// asserts the symmetry by memcmp on every input of its Jaro suites.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Reference textbook implementation (two flag vectors, byte-by-byte
/// window scan), kept as the differential-test oracle for JaroSimilarity.
double JaroSimilarityScalar(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix of up to 4
/// characters with scaling factor 0.1 (the standard parameters; 0.1 * 4 <= 1
/// keeps the result in [0,1]):
///
///   jw = jaro + prefix * 0.1 * (1 - jaro)
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler on JaroSimilarityScalar, with the same boost: the oracle
/// for JaroWinklerSimilarity and for the Jaro-Winkler loops inside
/// Monge-Elkan and soft TF-IDF.
double JaroWinklerSimilarityScalar(std::string_view a, std::string_view b);

/// JaroSimilarity's bit-parallel search with b held fixed, for scoring
/// many strings against one b (Monge-Elkan and soft TF-IDF score every
/// token of one side against each token of the other). b's per-byte
/// position masks are written once by Set and only read by each scan;
/// JaroSimilarity itself runs through this class.
///
/// The mask table starts uninitialized: every byte a scan reads must have
/// its entry cleared first. Protocol: Clear(s) for every string s that
/// will be scanned, then per fixed string Set(b), any number of Jaro(a) /
/// JaroWinkler(a) calls, and Clear(b) before the next Set. Not shared
/// between threads: each caller keeps its own on the stack.
class JaroFixedSide {
 public:
  /// Longest fixed string: its positions fit one 64-bit word.
  static constexpr size_t kMaxFixed = 64;

  /// Zeroes the mask entries of the bytes of `s`.
  void Clear(std::string_view s) {
    for (const char c : s) mask_[static_cast<unsigned char>(c)] = 0;
  }

  /// Fixes `b` (1..kMaxFixed bytes; the caller keeps it alive until the
  /// matching Clear(b)).
  void Set(std::string_view b) {
    b_ = b;
    Clear(b);
    for (size_t j = 0; j < b.size(); ++j) {
      mask_[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
    }
  }

  /// JaroSimilarity(a, b) for the fixed b (a may be empty).
  double Jaro(std::string_view a) const;
  /// JaroWinklerSimilarity(a, b) for the fixed b.
  double JaroWinkler(std::string_view a) const;

 private:
  std::array<uint64_t, 256> mask_;  // entries written before they are read
  std::string_view b_;
};

}  // namespace emdbg

#endif  // EMDBG_TEXT_JARO_H_
