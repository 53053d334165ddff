#include "src/text/alignment.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/util/string_util.h"

namespace emdbg {

namespace {

// The scoring scheme. The oracle DP works in these units; the production
// DP in half-units (all four are multiples of 0.5).
constexpr double kMatch = 2.0;
constexpr double kMismatch = -1.0;
constexpr double kGapOpen = -1.5;
constexpr double kGapExtend = -0.5;

constexpr int kHalfMatch = 4;
constexpr int kHalfMismatch = -2;
constexpr int kHalfGapOpen = -3;
constexpr int kHalfGapExtend = -1;
static_assert(kHalfMatch == 2 * kMatch && kHalfMismatch == 2 * kMismatch &&
              kHalfGapOpen == 2 * kGapOpen &&
              kHalfGapExtend == 2 * kGapExtend);

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Reference affine-gap DP (Gotoh). Three matrices rolled into two rows
/// each: M = best score ending in a match/mismatch, X = gap in a, Y = gap
/// in b. `local` selects Smith-Waterman (floors at 0, tracks global best).
double AlignScalar(std::string_view a, std::string_view b, bool local) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<double> prev_m(m + 1, kNegInf);
  std::vector<double> prev_x(m + 1, kNegInf);  // gap in a (consume b)
  std::vector<double> prev_y(m + 1, kNegInf);  // gap in b (consume a)
  std::vector<double> cur_m(m + 1);
  std::vector<double> cur_x(m + 1);
  std::vector<double> cur_y(m + 1);

  prev_m[0] = 0.0;
  for (size_t j = 1; j <= m; ++j) {
    prev_x[j] = kGapOpen + static_cast<double>(j - 1) * kGapExtend;
  }
  double best = 0.0;

  for (size_t i = 1; i <= n; ++i) {
    cur_m[0] = kNegInf;
    cur_x[0] = kNegInf;
    cur_y[0] = kGapOpen + static_cast<double>(i - 1) * kGapExtend;
    for (size_t j = 1; j <= m; ++j) {
      const double sub = AsciiToLower(a[i - 1]) == AsciiToLower(b[j - 1])
                             ? kMatch
                             : kMismatch;
      double diag_best =
          std::max({prev_m[j - 1], prev_x[j - 1], prev_y[j - 1]});
      if (local) diag_best = std::max(diag_best, 0.0);
      cur_m[j] = diag_best + sub;
      // Gap in a: extend horizontally over b.
      cur_x[j] = std::max(std::max(cur_m[j - 1], cur_y[j - 1]) + kGapOpen,
                          cur_x[j - 1] + kGapExtend);
      // Gap in b: extend vertically over a.
      cur_y[j] = std::max(std::max(prev_m[j], prev_x[j]) + kGapOpen,
                          prev_y[j] + kGapExtend);
      if (local) {
        best = std::max({best, cur_m[j], cur_x[j], cur_y[j]});
      }
    }
    std::swap(prev_m, cur_m);
    std::swap(prev_x, cur_x);
    std::swap(prev_y, cur_y);
  }
  if (local) return best;
  return std::max({prev_m[m], prev_x[m], prev_y[m]});
}

// Rows of the int32/int64 DP, each `cols + 1` scores wide.
constexpr size_t kDpRows = 6;
// Rows this wide or narrower live on the stack: up to 255 columns of the
// int32 DP (6 KB), up to 256 of the int16 DP (2.5 KB).
constexpr size_t kInlineWidth = 256;
// Up to this total length the int32 DP has headroom: a cell's score is at
// least -3 half-units per consumed character, and the -2^30 sentinel must
// stay below every such score after one more gap is added to it.
constexpr size_t kInt32MaxTotalLength = size_t{1} << 28;

/// The part of one row of AlignHalfUnits (below) that depends only on the
/// previous row: Y[j] and H[j] = max(M[j], Y[j]) for j = 1..m. Returns the
/// row's largest M (0 if none is positive). The restrict-qualified rows
/// let the loop vectorize without alias checks.
template <typename Score, bool kLocal>
Score DiagonalAndVertical(size_t m, Score ch, const Score* __restrict folded,
                          const Score* __restrict d_prev,
                          const Score* __restrict y_prev,
                          Score* __restrict y_cur, Score* __restrict h_row) {
  constexpr Score kOpen = kHalfGapOpen;
  constexpr Score kExtend = kHalfGapExtend;
  Score best_m = 0;
  for (size_t j = 1; j <= m; ++j) {
    Score diag = d_prev[j - 1];
    if constexpr (kLocal) diag = std::max(diag, Score{0});
    const Score mj = diag + (folded[j] == ch ? Score{kHalfMatch}
                                             : Score{kHalfMismatch});
    const Score yj = std::max(d_prev[j] + kOpen, y_prev[j] + kExtend);
    y_cur[j] = yj;
    h_row[j] = std::max(mj, yj);
    if constexpr (kLocal) best_m = std::max(best_m, mj);
  }
  return best_m;
}

/// The serial part of a row: X[j] as a running maximum over H, and
/// D[j] = max(H[j], X[j]) for j = 1..m.
template <typename Score>
void Horizontal(size_t m, const Score* __restrict h_row,
                Score* __restrict d_cur) {
  constexpr Score kOpen = kHalfGapOpen;
  constexpr Score kExtend = kHalfGapExtend;
  Score run = std::numeric_limits<Score>::min();  // max_{k<j} H[k] - k*e
  Score shift = 0;                                // (j-1)*e
  for (size_t j = 1; j <= m; ++j) {
    run = std::max(run, h_row[j - 1] - shift);
    d_cur[j] = std::max(h_row[j], run + kOpen + shift);
    shift += kExtend;
  }
}

/// AlignScalar's recurrences in exact integer half-units, over a buffer of
/// kDpRows * (cols.size() + 1) scores; `rows` runs down the matrix, `cols`
/// across it. With D = max(M, X, Y) and H = max(M, Y) per cell, and o, e
/// the gap open and extend costs (o < e < 0):
///
///   M[i][j] = D[i-1][j-1] (floored at 0 if local) + sub(i, j)
///   Y[i][j] = max(D[i-1][j] + o, Y[i-1][j] + e)
///   X[i][j] = max(H[i][j-1] + o, X[i][j-1] + e)
///           = o + (j-1)*e + max_{k<j} (H[i][k] - k*e)
///
/// (adding Y to the first max of Y, or X to that of X, changes nothing
/// since o < e). Per row, M, Y and H depend only on the previous row and
/// are computed in one vectorizable pass; X is a running maximum, one
/// serial scan. Only D and Y of a row reach the next one. A local
/// alignment's best cell is always an M cell (X and Y lie below the cell
/// they extend), so the local best is the largest M.
///
/// The cells that are -inf in the double DP (the border) hold a sentinel;
/// it only ever competes, one step cost added, against a finite score, so
/// the integer maxima equal the double ones.
template <typename Score, bool kLocal>
Score AlignHalfUnits(std::string_view rows, std::string_view cols,
                     Score* buf) {
  constexpr Score kNeg = std::numeric_limits<Score>::min() / 2;
  constexpr Score kOpen = kHalfGapOpen;
  constexpr Score kExtend = kHalfGapExtend;
  const size_t n = rows.size();
  const size_t m = cols.size();
  const size_t width = m + 1;
  Score* folded = buf;  // folded[j] = cols[j - 1], case-folded
  Score* d_prev = folded + width;
  Score* y_prev = d_prev + width;
  Score* d_cur = y_prev + width;
  Score* y_cur = d_cur + width;
  Score* h_row = y_cur + width;

  for (size_t j = 1; j <= m; ++j) {
    folded[j] = static_cast<unsigned char>(AsciiToLower(cols[j - 1]));
  }
  // Row 0: M[0][0] = 0, X[0][j] = o + (j-1)*e, everything else -inf.
  d_prev[0] = 0;
  for (size_t j = 1; j <= m; ++j) {
    d_prev[j] = kOpen + static_cast<Score>(j - 1) * kExtend;
    y_prev[j] = kNeg;
  }

  Score best = 0;
  for (size_t i = 1; i <= n; ++i) {
    // Column 0: M and X are -inf, Y[i][0] = o + (i-1)*e.
    const Score y0 = kOpen + static_cast<Score>(i - 1) * kExtend;
    d_cur[0] = y0;
    y_cur[0] = y0;
    h_row[0] = y0;
    const Score ch = static_cast<unsigned char>(AsciiToLower(rows[i - 1]));
    best = std::max(best, DiagonalAndVertical<Score, kLocal>(
                              m, ch, folded, d_prev, y_prev, y_cur, h_row));
    Horizontal<Score>(m, h_row, d_cur);
    std::swap(d_prev, d_cur);
    std::swap(y_prev, y_cur);
  }
  if constexpr (kLocal) return best;
  return d_prev[m];
}

#if defined(__SSE2__)
// Up to this total length (n + m) every score of the int16 DP below fits.
// Each step of a path consumes one or two characters and moves the score
// by at most 3 half-units per character it consumes (a match gains 4 for
// two, a gap opening costs 3 for one), so cell (i, j) of an n x m' DP lies
// in [-3 (i + j), 2 (i + j)]. The padded columns (m' <= m + 7, see
// AlignInt16) are columns of such a DP too. X's prefix maximum adds the
// column index k and a bias of 3 (n + m'), so its values lie in
// [0, 6 (n + m')], and 6 * (4096 + 7) < 2^15: no real or padded score
// saturates int16; only the INT16_MIN sentinel does, and it stays
// INT16_MIN and loses every maximum.
constexpr size_t kInt16MaxTotalLength = 4096;
// int16 scores per SSE2 vector: one vector holds 8 adjacent columns.
constexpr size_t kLanes = 8;
// Scores per padded column the int16 DP keeps: the folded column byte,
// D of the previous and current row, Y of the previous and current row.
constexpr size_t kInt16Rows = 5;

/// Broadcasts lane 7 of `v` to all eight lanes.
inline __m128i BroadcastLast(__m128i v) {
  return _mm_shuffle_epi32(_mm_shufflehi_epi16(v, 0xFF), 0xFF);
}

/// AlignHalfUnits's recurrences in int16, eight columns per SSE2 vector,
/// M, Y, H and X of a row in one fused pass. For n + m <=
/// kInt16MaxTotalLength; `buf` holds kInt16Rows * padded + 2 scores, with
/// padded = m rounded up to kLanes.
///
/// With e = -1, X[j] = o - (j-1) + max_{k<j} (H[k] + k): an exclusive
/// prefix maximum of G[k] = H[k] + k. Within a vector it takes three
/// shift-max steps (1, 2 and 4 lanes) and a one-lane shift; the maximum of
/// all earlier columns is carried from vector to vector, which is the only
/// serial dependency of the row (Farrar's striped Smith-Waterman uses the
/// same int16 lanes, Bioinformatics 2007). G carries a bias that makes it
/// non-negative, so the zero lanes a byte shift brings in lose every
/// maximum.
///
/// The padding columns right of column m only feed columns further right,
/// so no real cell reads them. Their byte never matches, so a padded M is
/// an alignment ending in a mismatch and stays below max(0, best real M):
/// the local maximum over all lanes is the real one.
template <bool kLocal>
int AlignInt16(std::string_view rows, std::string_view cols, int16_t* buf) {
  static_assert(kHalfGapExtend == -1, "X's prefix maximum adds k * -e = k");
  constexpr int16_t kNeg = std::numeric_limits<int16_t>::min();
  const size_t n = rows.size();
  const size_t m = cols.size();
  const size_t padded = (m + kLanes - 1) / kLanes * kLanes;
  int16_t* folded = buf;                 // folded[j - 1]: column j's byte
  int16_t* d_prev = folded + padded;     // d_prev[j]: column j, 0..padded
  int16_t* d_cur = d_prev + padded + 1;
  int16_t* y_prev = d_cur + padded + 1;  // y_prev[j - 1]: column j
  int16_t* y_cur = y_prev + padded;

  // Row 0: M[0][0] = 0, X[0][j] = o + (j-1)*e, Y[0][j] = -inf. A padding
  // byte of -1 equals no folded byte (0..255).
  d_prev[0] = 0;
  for (size_t j = 0; j < padded; ++j) {
    folded[j] = j < m ? static_cast<unsigned char>(AsciiToLower(cols[j]))
                      : int16_t{-1};
    d_prev[j + 1] = static_cast<int16_t>(kHalfGapOpen - static_cast<int>(j));
    y_prev[j] = kNeg;
  }

  const auto load = [](const int16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  const auto store = [](int16_t* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  };
  const __m128i open = _mm_set1_epi16(kHalfGapOpen);
  const __m128i extend = _mm_set1_epi16(kHalfGapExtend);
  const __m128i mismatch = _mm_set1_epi16(kHalfMismatch);
  const __m128i match_gain = _mm_set1_epi16(kHalfMatch - kHalfMismatch);
  const __m128i x_base = _mm_set1_epi16(kHalfGapOpen + 1);  // o - (j-1) + j
  const __m128i step = _mm_set1_epi16(static_cast<int16_t>(kLanes));
  // Column j + bias, for the first vector's columns 1..8.
  const auto bias = static_cast<int16_t>(3 * (n + padded));
  const __m128i first_columns = _mm_add_epi16(
      _mm_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8), _mm_set1_epi16(bias));
  const __m128i zero = _mm_setzero_si128();
  __m128i best = zero;

  for (size_t i = 1; i <= n; ++i) {
    // Column 0: M and X are -inf, D = H = Y[i][0] = o + (i-1)*e.
    const auto y0 =
        static_cast<int16_t>(kHalfGapOpen - static_cast<int>(i - 1));
    d_cur[0] = y0;
    const __m128i ch = _mm_set1_epi16(
        static_cast<unsigned char>(AsciiToLower(rows[i - 1])));
    // max_{k<j} G[k] + bias, starting from G[0] = H[0] = y0.
    __m128i carry = _mm_set1_epi16(static_cast<int16_t>(y0 + bias));
    __m128i column = first_columns;
    // D[i-1][j-1] is D[i-1][j] one lane to the left; the lane that crosses
    // from the vector before enters through `left`. (An unaligned load of
    // it would straddle two of the previous row's stores.)
    __m128i left = _mm_cvtsi32_si128(static_cast<uint16_t>(d_prev[0]));
    for (size_t c = 0; c < padded; c += kLanes) {
      const __m128i up = load(d_prev + c + 1);
      __m128i diag = _mm_or_si128(_mm_slli_si128(up, 2), left);
      left = _mm_srli_si128(up, 14);
      if constexpr (kLocal) diag = _mm_max_epi16(diag, zero);
      const __m128i eq = _mm_cmpeq_epi16(load(folded + c), ch);
      const __m128i mv = _mm_adds_epi16(
          diag, _mm_add_epi16(mismatch, _mm_and_si128(eq, match_gain)));
      const __m128i yv = _mm_max_epi16(
          _mm_adds_epi16(up, open), _mm_adds_epi16(load(y_prev + c), extend));
      const __m128i hv = _mm_max_epi16(mv, yv);
      if constexpr (kLocal) best = _mm_max_epi16(best, mv);

      __m128i g = _mm_adds_epi16(hv, column);
      g = _mm_max_epi16(g, _mm_slli_si128(g, 2));
      g = _mm_max_epi16(g, _mm_slli_si128(g, 4));
      g = _mm_max_epi16(g, _mm_slli_si128(g, 8));
      // g[l] is the inclusive maximum of the vector's G up to lane l; one
      // more lane shift and the carry make it max_{k<j} G[k].
      const __m128i before = _mm_max_epi16(carry, _mm_slli_si128(g, 2));
      carry = _mm_max_epi16(carry, BroadcastLast(g));
      const __m128i xv =
          _mm_adds_epi16(_mm_subs_epi16(before, column), x_base);
      store(d_cur + c + 1, _mm_max_epi16(hv, xv));
      store(y_cur + c, yv);
      column = _mm_add_epi16(column, step);
    }
    std::swap(d_prev, d_cur);
    std::swap(y_prev, y_cur);
  }
  if constexpr (kLocal) {
    // best >= 0 in every lane, so the zeros the shifts bring in are
    // harmless.
    best = _mm_max_epi16(best, _mm_srli_si128(best, 8));
    best = _mm_max_epi16(best, _mm_srli_si128(best, 4));
    best = _mm_max_epi16(best, _mm_srli_si128(best, 2));
    return _mm_extract_epi16(best, 0);
  }
  return d_prev[m];
}
#endif  // __SSE2__

/// Raw alignment score of a and b (both non-empty), equal to AlignScalar's.
/// The optimum is symmetric in its arguments (the scheme scores both gap
/// directions alike), so the shorter string goes across: the rows, and
/// so the scratch memory, scale with it.
template <bool kLocal>
double AlignScore(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
#if defined(__SSE2__)
  if (a.size() + b.size() <= kInt16MaxTotalLength) {
    const size_t padded = (b.size() + kLanes - 1) / kLanes * kLanes;
    if (padded <= kInlineWidth) {
      // Not zeroed: AlignInt16 writes every entry before reading it.
      std::array<int16_t, kInt16Rows * kInlineWidth + 2> stack;
      return 0.5 * AlignInt16<kLocal>(a, b, stack.data());
    }
    std::vector<int16_t> heap(kInt16Rows * padded + 2);
    return 0.5 * AlignInt16<kLocal>(a, b, heap.data());
  }
#endif
  const size_t width = b.size() + 1;
  if (a.size() + b.size() > kInt32MaxTotalLength) {
    std::vector<int64_t> heap(kDpRows * width);
    return 0.5 * static_cast<double>(
                     AlignHalfUnits<int64_t, kLocal>(a, b, heap.data()));
  }
  if (width <= kInlineWidth) {
    // Not zeroed: AlignHalfUnits writes every entry before reading it.
    std::array<int32_t, kDpRows * kInlineWidth> stack;
    return 0.5 * static_cast<double>(
                     AlignHalfUnits<int32_t, kLocal>(a, b, stack.data()));
  }
  std::vector<int32_t> heap(kDpRows * width);
  return 0.5 * static_cast<double>(
                   AlignHalfUnits<int32_t, kLocal>(a, b, heap.data()));
}

}  // namespace

double NeedlemanWunschSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const double raw = AlignScore</*kLocal=*/false>(a, b);
  const double denom =
      kMatch * static_cast<double>(std::max(a.size(), b.size()));
  return std::clamp(raw / denom, 0.0, 1.0);
}

double SmithWatermanSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const double raw = AlignScore</*kLocal=*/true>(a, b);
  const double denom =
      kMatch * static_cast<double>(std::min(a.size(), b.size()));
  return std::clamp(raw / denom, 0.0, 1.0);
}

double NeedlemanWunschSimilarityScalar(std::string_view a,
                                       std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const double raw = AlignScalar(a, b, /*local=*/false);
  const double denom =
      kMatch * static_cast<double>(std::max(a.size(), b.size()));
  return std::clamp(raw / denom, 0.0, 1.0);
}

double SmithWatermanSimilarityScalar(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const double raw = AlignScalar(a, b, /*local=*/true);
  const double denom =
      kMatch * static_cast<double>(std::min(a.size(), b.size()));
  return std::clamp(raw / denom, 0.0, 1.0);
}

}  // namespace emdbg
