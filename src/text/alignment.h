#ifndef EMDBG_TEXT_ALIGNMENT_H_
#define EMDBG_TEXT_ALIGNMENT_H_

#include <string_view>

namespace emdbg {

/// Sequence-alignment similarities, normalized to [0, 1].
///
/// Scores are per character and fixed: match +2 for equal characters
/// (case-insensitive ASCII: only `A`-`Z` fold to `a`-`z`, independent of
/// the process locale; bytes >= 0x80 compare as they are), mismatch -1 for
/// substitutions, and affine gaps costing -1.5 to open and -0.5 per
/// further character (Gotoh's three-state DP).
///
/// Every score the DP can reach is a multiple of 0.5, so the production
/// DP runs in integer half-units (match 4, mismatch -2, gap open -3, gap
/// extend -1): in SSE2 int16 lanes when the two strings total at most
/// 4096 bytes, in int32 (int64 past 2^28 bytes) otherwise. It returns the
/// same doubles as the `double` DP kept in the `*Scalar` oracles.

/// Global alignment (Needleman-Wunsch with affine gaps), normalized by
/// match * max(|a|, |b|), so identical strings score 1 and unrelated strings
/// approach 0. Both-empty inputs score 1.0; empty-vs-nonempty 0.
double NeedlemanWunschSimilarity(std::string_view a, std::string_view b);

/// Local alignment (Smith-Waterman with affine gaps), normalized by
/// match * min(|a|, |b|) — 1.0 when the shorter string aligns perfectly
/// inside the longer one (substring semantics, useful for model numbers
/// embedded in titles). Both-empty inputs score 1.0; empty-vs-nonempty 0.
double SmithWatermanSimilarity(std::string_view a, std::string_view b);

/// Reference `double` DPs (six heap rows, one cell at a time), kept as the
/// differential-test oracles for the two functions above.
double NeedlemanWunschSimilarityScalar(std::string_view a,
                                       std::string_view b);
double SmithWatermanSimilarityScalar(std::string_view a, std::string_view b);

}  // namespace emdbg

#endif  // EMDBG_TEXT_ALIGNMENT_H_
