#include "src/text/alignment.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

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

// Rows of the production DP, each `cols + 1` scores wide.
constexpr size_t kDpRows = 6;
// Rows this wide or narrower (up to 255 columns) live on the stack: 6 KB.
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

/// Raw alignment score of a and b (both non-empty), equal to AlignScalar's.
/// The optimum is symmetric in its arguments (the scheme scores both gap
/// directions alike), so the shorter string goes across: the rows, and
/// so the scratch memory, scale with it.
template <bool kLocal>
double AlignScore(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
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
