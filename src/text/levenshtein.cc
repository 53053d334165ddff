#include "src/text/levenshtein.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace emdbg {

namespace {

// Myers' bit-parallel edit distance. The pattern `a` (m rows, m >= 1) is
// encoded as per-character match masks; each text character of `b` then
// advances a whole 64-row column of the DP matrix with ~17 word ops. The
// score tracks row m exactly: D[m][j] changes by the Ph/Mh bit at row m, so
// the returned value equals the scalar DP's.
//
// `bound == SIZE_MAX` disables the early exit; otherwise the scan stops as
// soon as D[m][j] - (n - j) > bound (the score can decrease by at most one
// per remaining column), returning bound + 1 per the bounded contract.

/// Patterns of at most 64 bytes: one word per column, `pv`/`mv` in
/// registers, and a sparse match table: only the entries of bytes that
/// occur in a or b are written (cleared, then a's bits set), and only
/// those are read, so a short call touches a few entries, not 2 KB.
size_t MyersOneWord(std::string_view a, std::string_view b, size_t bound) {
  const size_t m = a.size();
  const size_t n = b.size();
  std::array<uint64_t, 256> peq;  // entries written before they are read
  for (const char c : b) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = m;
  const unsigned last = static_cast<unsigned>(m - 1);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t eq = peq[static_cast<unsigned char>(b[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    const uint64_t ph = mv | ~(xh | pv);
    const uint64_t mh = pv & xh;
    score += (ph >> last) & 1;
    score -= (mh >> last) & 1;
    // Row 0 is D[0][j] = j: the carry into the bottom row is always +1.
    const uint64_t ph_in = (ph << 1) | 1;
    pv = (mh << 1) | ~(xv | ph_in);
    mv = ph_in & xv;
    if (score > bound && score - bound > n - (j + 1)) return bound + 1;
  }
  return score;
}

/// Patterns longer than 64 bytes: the column is split into ceil(m/64)
/// blocks chained by the horizontal delta carries (the edlib/Hyyro block
/// formulation).
size_t MyersBlocks(std::string_view a, std::string_view b, size_t bound) {
  const size_t m = a.size();
  const size_t n = b.size();
  const size_t blocks = (m + 63) >> 6;

  // Peq[c * blocks + k]: match mask of pattern block k for byte c. Up to
  // kInlineBlocks blocks stay on the stack.
  constexpr size_t kInlineBlocks = 4;  // up to 256-byte patterns
  std::array<uint64_t, 256 * kInlineBlocks> peq_stack;
  std::array<uint64_t, kInlineBlocks> pv_stack;
  std::array<uint64_t, kInlineBlocks> mv_stack;
  std::vector<uint64_t> heap;
  uint64_t* peq = peq_stack.data();
  uint64_t* pv = pv_stack.data();
  uint64_t* mv = mv_stack.data();
  if (blocks > kInlineBlocks) {
    heap.assign(256 * blocks + 2 * blocks, 0);
    peq = heap.data();
    pv = peq + 256 * blocks;
    mv = pv + blocks;
  } else {
    std::fill(peq, peq + 256 * blocks, 0);
  }
  for (size_t i = 0; i < m; ++i) {
    const auto c = static_cast<unsigned char>(a[i]);
    peq[static_cast<size_t>(c) * blocks + (i >> 6)] |= uint64_t{1}
                                                       << (i & 63);
  }
  for (size_t k = 0; k < blocks; ++k) {
    pv[k] = ~uint64_t{0};
    mv[k] = 0;
  }

  size_t score = m;
  const uint64_t last_bit = uint64_t{1} << ((m - 1) & 63);
  const size_t top = blocks - 1;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq_col =
        peq + static_cast<size_t>(static_cast<unsigned char>(b[j])) * blocks;
    int hin = 1;  // row 0 is D[0][j] = j: +1 every column
    for (size_t k = 0; k < blocks; ++k) {
      uint64_t eq = eq_col[k];
      const uint64_t pvk = pv[k];
      const uint64_t mvk = mv[k];
      const uint64_t xv = eq | mvk;
      if (hin < 0) eq |= 1;
      const uint64_t xh = (((eq & pvk) + pvk) ^ pvk) | eq;
      uint64_t ph = mvk | ~(xh | pvk);
      uint64_t mh = pvk & xh;
      if (k == top) {
        if (ph & last_bit) {
          ++score;
        } else if (mh & last_bit) {
          --score;
        }
      }
      int hout = 0;
      if (ph >> 63) {
        hout = 1;
      } else if (mh >> 63) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) {
        ph |= 1;
      } else if (hin < 0) {
        mh |= 1;
      }
      pv[k] = mh | ~(xv | ph);
      mv[k] = ph & xv;
      hin = hout;
    }
    // Even if every remaining column decrements the score, can it still
    // come back under the bound? (For the unbounded call bound is
    // SIZE_MAX, so the first test is always false.)
    if (score > bound && score - bound > n - (j + 1)) return bound + 1;
  }
  return score;
}

size_t MyersDistance(std::string_view a, std::string_view b, size_t bound) {
  return a.size() <= 64 ? MyersOneWord(a, b, bound)
                        : MyersBlocks(a, b, bound);
}

}  // namespace

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // shorter string = pattern
  if (a.empty()) return b.size();
  return MyersDistance(a, b, static_cast<size_t>(-1));
}

size_t LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                                  size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  const size_t n = b.size();
  if (n - m > bound) return bound + 1;
  if (m == 0) return n;  // n <= bound here, so min(n, bound+1) == n
  return std::min(MyersDistance(a, b, bound), bound + 1);
}

size_t LevenshteinDistanceScalar(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // keep the DP row short
  const size_t m = a.size();
  const size_t n = b.size();
  if (m == 0) return n;
  std::vector<size_t> row(m + 1);
  for (size_t i = 0; i <= m; ++i) row[i] = i;
  for (size_t j = 1; j <= n; ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= m; ++i) {
      const size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
    }
  }
  return row[m];
}

size_t LevenshteinDistanceBoundedScalar(std::string_view a,
                                        std::string_view b, size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  const size_t n = b.size();
  if (n - m > bound) return bound + 1;
  if (m == 0) return n;
  const size_t kInf = bound + 1;
  std::vector<size_t> row(m + 1, kInf);
  for (size_t i = 0; i <= std::min(m, bound); ++i) row[i] = i;
  for (size_t j = 1; j <= n; ++j) {
    // Only cells with |i - j| <= bound can be <= bound.
    const size_t lo = j > bound ? j - bound : 1;
    const size_t hi = std::min(m, j + bound);
    size_t prev_diag = row[lo - 1];
    row[0] = j <= bound ? j : kInf;
    size_t row_min = kInf;
    for (size_t i = lo; i <= hi; ++i) {
      const size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      const size_t del = row[i] == kInf ? kInf : row[i] + 1;
      const size_t ins = row[i - 1] == kInf ? kInf : row[i - 1] + 1;
      row[i] = std::min({del, ins, subst, kInf});
      row_min = std::min(row_min, row[i]);
    }
    if (lo >= 2) row[lo - 1] = kInf;  // out of band now
    if (row_min >= kInf) return kInf;
  }
  return std::min(row[m], kInf);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  const size_t d = LevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(max_len);
}

}  // namespace emdbg
