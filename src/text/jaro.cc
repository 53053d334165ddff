#include "src/text/jaro.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace emdbg {

namespace {

// Jaro-Winkler's standard parameters (Winkler 1990): the prefix boost
// scales with the shared prefix up to kMaxPrefix characters.
constexpr double kPrefixWeight = 0.1;
constexpr size_t kMaxPrefix = 4;

// Match window: characters at distance <= floor(max/2) - 1 count.
size_t MatchWindow(size_t a_size, size_t b_size) {
  const size_t max_len = std::max(a_size, b_size);
  return max_len / 2 == 0 ? 0 : max_len / 2 - 1;
}

double JaroFromCounts(size_t matches, size_t transpositions, size_t a_size,
                      size_t b_size) {
  const double m = static_cast<double>(matches);
  const double t = static_cast<double>(transpositions) / 2.0;
  return (m / static_cast<double>(a_size) +
          m / static_cast<double>(b_size) + (m - t) / m) /
         3.0;
}

// jw = jaro + prefix * kPrefixWeight * (1 - jaro), prefix <= kMaxPrefix.
double WinklerBoost(double jaro, std::string_view a, std::string_view b) {
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), kMaxPrefix});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixWeight * (1.0 - jaro);
}

}  // namespace

// The bit-parallel search, for |b| <= 64: b's positions fit one word.
// mask_[c] holds bit j iff b[j] == c (Set), and the entries of a's other
// bytes read 0 (Clear). `flagged` holds the b positions already matched.
// For each a[i] in order, the lowest set bit of
// mask[a[i]] & ~flagged & window(i) is the first free equal byte in the
// window: the textbook loop's greedy choice.
double JaroFixedSide::Jaro(std::string_view a) const {
  const std::string_view b = b_;
  if (a.empty()) return 0.0;  // b is never empty
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t window = MatchWindow(n, m);
  // a[i] with i - window >= m has an empty window, as has every later one.
  const size_t scan = std::min(n, m + window);

  std::array<char, 64> a_matched;  // matched bytes of a, in a's order
  uint64_t flagged = 0;
  size_t matches = 0;
  for (size_t i = 0; i < scan; ++i) {
    const size_t lo = i > window ? i - window : 0;  // lo < m <= 64
    uint64_t candidates = mask_[static_cast<unsigned char>(a[i])] &
                          ~flagged & (~uint64_t{0} << lo);
    const size_t hi = i + window + 1;
    // Bits at or above m are never set in mask, so only hi < m needs the
    // upper cut (and then the shift is below 64).
    if (hi < m) candidates &= (uint64_t{1} << hi) - 1;
    if (candidates != 0) {
      flagged |= candidates & (~candidates + 1);
      a_matched[matches++] = a[i];
    }
  }
  if (matches == 0) return 0.0;

  // Transpositions: the k-th matched byte of a against the k-th of b.
  size_t transpositions = 0;
  size_t k = 0;
  for (uint64_t rest = flagged; rest != 0; rest &= rest - 1) {
    const auto j = static_cast<size_t>(std::countr_zero(rest));
    if (b[j] != a_matched[k++]) ++transpositions;
  }
  return JaroFromCounts(matches, transpositions, n, m);
}

double JaroFixedSide::JaroWinkler(std::string_view a) const {
  return WinklerBoost(Jaro(a), a, b_);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (b.size() > JaroFixedSide::kMaxFixed) return JaroSimilarityScalar(a, b);
  JaroFixedSide side;
  side.Clear(a);
  side.Set(b);
  return side.Jaro(a);
}

double JaroSimilarityScalar(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t window = MatchWindow(a.size(), b.size());

  std::vector<char> a_matched(a.size(), 0);
  std::vector<char> b_matched(b.size(), 0);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions between the matched subsequences.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return WinklerBoost(JaroSimilarity(a, b), a, b);
}

double JaroWinklerSimilarityScalar(std::string_view a, std::string_view b) {
  return WinklerBoost(JaroSimilarityScalar(a, b), a, b);
}

}  // namespace emdbg
