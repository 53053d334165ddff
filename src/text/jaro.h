#ifndef EMDBG_TEXT_JARO_H_
#define EMDBG_TEXT_JARO_H_

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

}  // namespace emdbg

#endif  // EMDBG_TEXT_JARO_H_
