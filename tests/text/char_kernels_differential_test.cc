// Differential fuzz suite for the character kernels: the bit-parallel
// Jaro search and the half-unit integer alignment DPs (int16 SSE2 up to a
// total of 4096 bytes, int32 past it) must return the same doubles, bit
// for bit (memcmp), as their textbook *Scalar oracles — for
// seeded random strings of 0-300 bytes that cross every 64-bit word
// boundary, over alphabets of 2-64 symbols (small ones give long match
// chains), with mixed case and bytes >= 0x80, in both argument orders;
// Jaro and Jaro-Winkler must also be symmetric bit for bit. Monge-Elkan
// and soft TF-IDF, string and interned-id kernels, are checked against
// reference loops built on the scalar Jaro-Winkler, and all four character
// functions through PairContext::ComputeFeatureBlock on a generated
// products corpus.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/feature.h"
#include "src/core/pair_context.h"
#include "src/data/datasets.h"
#include "src/text/alignment.h"
#include "src/text/id_kernels.h"
#include "src/text/jaro.h"
#include "src/text/monge_elkan.h"
#include "src/text/soft_tfidf.h"
#include "src/text/tfidf.h"
#include "src/text/token_interner.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Printable form of a byte string for failure messages.
std::string Show(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '"' && c != '\\') {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", u);
      out += buf;
    }
  }
  return out + "\" (" + std::to_string(s.size()) + " bytes)";
}

// Counts bit disagreements; reports the first few with their inputs.
class MismatchLog {
 public:
  void Check(const char* what, double got, double want, std::string_view a,
             std::string_view b) {
    ++checks_;
    if (SameBits(got, want)) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << what << ": production " << got << " vs oracle "
                    << want << "\n  a = " << Show(a) << "\n  b = " << Show(b);
    }
  }
  void ExpectClean() const {
    EXPECT_EQ(mismatches_, 0u) << "over " << checks_ << " checks";
    EXPECT_GT(checks_, 0u);
  }

 private:
  size_t checks_ = 0;
  size_t mismatches_ = 0;
};

// `size` distinct symbols from a pool of lower- and upper-case letters,
// digits, punctuation and bytes >= 0x80 (0xC0-0xC7 and 0xE0-0xE7 are case
// pairs under Latin-1, which the alignment DP must not fold).
std::string Alphabet(Rng& rng, size_t size) {
  std::string pool;
  for (char c = 'a'; c <= 'z'; ++c) pool.push_back(c);
  for (char c = 'A'; c <= 'Z'; ++c) pool.push_back(c);
  for (char c = '0'; c <= '9'; ++c) pool.push_back(c);
  pool += " -./";
  for (int c = 0xC0; c <= 0xC7; ++c) pool.push_back(static_cast<char>(c));
  for (int c = 0xE0; c <= 0xE7; ++c) pool.push_back(static_cast<char>(c));
  pool.push_back(static_cast<char>(0x80));
  pool.push_back(static_cast<char>(0xFF));
  std::vector<char> symbols(pool.begin(), pool.end());
  rng.Shuffle(symbols);
  return std::string(symbols.begin(),
                     symbols.begin() + std::min(size, symbols.size()));
}

std::string RandomString(Rng& rng, const std::string& alphabet, size_t len) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.Uniform(alphabet.size())]);
  }
  return s;
}

// A string of length `len` related to `a`: a's bytes, shifted, with
// substitutions, adjacent swaps and case flips, so matches and
// transpositions are plentiful.
std::string Related(Rng& rng, const std::string& a,
                    const std::string& alphabet, size_t len) {
  if (a.empty()) return RandomString(rng, alphabet, len);
  std::string b;
  b.reserve(len);
  const size_t shift = rng.Uniform(4);
  for (size_t i = 0; i < len; ++i) {
    char c = a[(i + shift) % a.size()];
    const uint64_t roll = rng.Uniform(10);
    if (roll == 0) c = alphabet[rng.Uniform(alphabet.size())];
    if (roll == 1 && c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
    b.push_back(c);
    if (roll == 2 && b.size() >= 2) {
      std::swap(b[b.size() - 1], b[b.size() - 2]);
    }
  }
  return b;
}

struct Case {
  std::string a;
  std::string b;
};

// Lengths at and around every 64-bit word boundary up to 300 bytes (and
// the 256-column stack limit of the alignment rows).
constexpr size_t kBoundaryLengths[] = {0,   1,   2,   3,   31,  32,  33,
                                       63,  64,  65,  127, 128, 129, 191,
                                       192, 193, 255, 256, 257, 300};

// Every pair of boundary lengths for each alphabet size in `alphabets`,
// half of them related strings.
std::vector<Case> BoundaryGrid(uint64_t seed,
                               const std::vector<size_t>& lengths,
                               const std::vector<size_t>& alphabets) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (const size_t symbols : alphabets) {
    for (const size_t la : lengths) {
      for (const size_t lb : lengths) {
        const std::string alphabet = Alphabet(rng, symbols);
        std::string a = RandomString(rng, alphabet, la);
        std::string b = rng.Bernoulli(0.5) ? Related(rng, a, alphabet, lb)
                                           : RandomString(rng, alphabet, lb);
        cases.push_back({std::move(a), std::move(b)});
      }
    }
  }
  return cases;
}

// `count` pairs with lengths uniform in 0..max_len and alphabets of 2-64
// symbols, half of them related strings.
std::vector<Case> RandomCases(uint64_t seed, size_t count, size_t max_len) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (size_t i = 0; i < count; ++i) {
    const std::string alphabet = Alphabet(rng, 2 + rng.Uniform(63));
    std::string a = RandomString(rng, alphabet, rng.Uniform(max_len + 1));
    const size_t lb = rng.Uniform(max_len + 1);
    std::string b = rng.Bernoulli(0.5) ? Related(rng, a, alphabet, lb)
                                       : RandomString(rng, alphabet, lb);
    cases.push_back({std::move(a), std::move(b)});
  }
  return cases;
}

std::vector<size_t> AllBoundaryLengths() {
  return std::vector<size_t>(std::begin(kBoundaryLengths),
                             std::end(kBoundaryLengths));
}

void CheckJaro(const std::vector<Case>& cases) {
  MismatchLog log;
  for (const Case& c : cases) {
    for (int order = 0; order < 2; ++order) {
      const std::string& a = order == 0 ? c.a : c.b;
      const std::string& b = order == 0 ? c.b : c.a;
      log.Check("jaro", JaroSimilarity(a, b), JaroSimilarityScalar(a, b), a,
                b);
      log.Check("jaro_winkler", JaroWinklerSimilarity(a, b),
                JaroWinklerSimilarityScalar(a, b), a, b);
    }
    // Symmetry, which the one-pass Monge-Elkan and soft TF-IDF rely on
    // (the proof is in jaro.h): both kernels, both argument orders.
    log.Check("jaro symmetry", JaroSimilarity(c.b, c.a),
              JaroSimilarity(c.a, c.b), c.a, c.b);
    log.Check("jaro_winkler symmetry", JaroWinklerSimilarity(c.b, c.a),
              JaroWinklerSimilarity(c.a, c.b), c.a, c.b);
    log.Check("jaro scalar symmetry", JaroSimilarityScalar(c.b, c.a),
              JaroSimilarityScalar(c.a, c.b), c.a, c.b);
    log.Check("jaro_winkler scalar symmetry",
              JaroWinklerSimilarityScalar(c.b, c.a),
              JaroWinklerSimilarityScalar(c.a, c.b), c.a, c.b);
  }
  log.ExpectClean();
}

void CheckAlignment(const std::vector<Case>& cases) {
  MismatchLog log;
  for (const Case& c : cases) {
    for (int order = 0; order < 2; ++order) {
      const std::string& a = order == 0 ? c.a : c.b;
      const std::string& b = order == 0 ? c.b : c.a;
      log.Check("smith_waterman", SmithWatermanSimilarity(a, b),
                SmithWatermanSimilarityScalar(a, b), a, b);
      log.Check("needleman_wunsch", NeedlemanWunschSimilarity(a, b),
                NeedlemanWunschSimilarityScalar(a, b), a, b);
    }
  }
  log.ExpectClean();
}

TEST(JaroDifferentialTest, BoundaryLengthGrid) {
  CheckJaro(BoundaryGrid(11, AllBoundaryLengths(), {2, 4, 16, 64}));
}

TEST(JaroDifferentialTest, RandomStrings) {
  CheckJaro(RandomCases(12, 6000, 300));
}

TEST(JaroDifferentialTest, ShortTokens) {
  // Monge-Elkan and soft TF-IDF call Jaro-Winkler on word tokens.
  CheckJaro(RandomCases(13, 20000, 12));
}

TEST(JaroDifferentialTest, FarApartLengths) {
  // One side much longer than the other: the match window covers the
  // whole short side. A short b takes the bit-parallel search, a long one
  // the scalar loop.
  Rng rng(14);
  std::vector<Case> cases;
  for (const size_t symbols : {2, 8, 64}) {
    const std::string alphabet = Alphabet(rng, symbols);
    for (const size_t long_len : {400, 1000, 3000}) {
      for (const size_t short_len : {1, 5, 64, 65, 200}) {
        std::string a = RandomString(rng, alphabet, long_len);
        std::string b = Related(rng, a, alphabet, short_len);
        cases.push_back({std::move(a), std::move(b)});
      }
    }
  }
  CheckJaro(cases);
}

TEST(AlignmentDifferentialTest, BoundaryLengthGrid) {
  // 7/8/9 and 15/16/17 straddle the int16 DP's 8-column vectors.
  CheckAlignment(BoundaryGrid(21,
                              {0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127,
                               128, 129, 255, 256, 257},
                              {2, 26}));
}

TEST(AlignmentDifferentialTest, RandomStrings) {
  CheckAlignment(RandomCases(22, 400, 300));
}

TEST(AlignmentDifferentialTest, ShortFields) {
  // modelno, brand and price values: a few bytes each.
  CheckAlignment(RandomCases(23, 5000, 16));
}

TEST(AlignmentDifferentialTest, LongStrings) {
  // Both sides past the 255-column stack rows, and a long string against
  // a short one (the short one goes across).
  Rng rng(24);
  std::vector<Case> cases;
  for (const size_t symbols : {2, 20}) {
    const std::string alphabet = Alphabet(rng, symbols);
    std::string a = RandomString(rng, alphabet, 700);
    cases.push_back({a, Related(rng, a, alphabet, 600)});
    cases.push_back({a, RandomString(rng, alphabet, 3)});
  }
  CheckAlignment(cases);
}

TEST(AlignmentDifferentialTest, Int16BoundAndExtremeScores) {
  // The int16 DP runs up to a total length of 4096 bytes, the int32 DP
  // past it: each shape below sits on both sides of that bound, and the
  // skewed ones also far past it (12,000 bytes, where the int16 DP's
  // column bias alone would no longer fit). The scores are the extremes:
  // all-match (the largest score), a single byte against another (every
  // cell a mismatch or a gap: Needleman-Wunsch's most negative scores),
  // and a long run of one byte ahead of a matching block (a deeply
  // negative gap that the matches climb back from).
  Rng rng(25);
  const std::string alphabet = Alphabet(rng, 26);
  std::vector<Case> cases;
  for (const size_t total : {size_t{4096}, size_t{4097}, size_t{12000}}) {
    std::vector<size_t> short_lens = {1, 9};
    if (total < 5000) short_lens.push_back(total / 2);
    for (const size_t short_len : short_lens) {
      const size_t long_len = total - short_len;
      const std::string a = RandomString(rng, alphabet, long_len);
      cases.push_back({a, a.substr(0, short_len)});
      for (const char other : {'a', 'b'}) {
        cases.push_back(
            {std::string(long_len, 'a'), std::string(short_len, other)});
      }
      cases.push_back({std::string(long_len, '\xFF'),
                       RandomString(rng, "xyz", short_len)});
      const std::string block = RandomString(rng, alphabet, short_len);
      cases.push_back({std::string(long_len - short_len, 'q') + block, block});
    }
  }
  CheckAlignment(cases);
  // All-match at the bound: a raw score of 4 half-units per byte pair.
  const std::string same(2048, 'k');
  EXPECT_EQ(NeedlemanWunschSimilarity(same, same), 1.0);
  EXPECT_EQ(SmithWatermanSimilarity(same, same), 1.0);
}

TEST(AlignmentDifferentialTest, CaseFoldingIsAsciiOnly) {
  // 'A' and 'a' are equal; 0xC0 and 0xE0 (a case pair under Latin-1) are
  // not, whatever the process locale says.
  auto expect_fold = [] {
    EXPECT_EQ(NeedlemanWunschSimilarity("A", "a"), 1.0);
    EXPECT_EQ(SmithWatermanSimilarity("A", "a"), 1.0);
    EXPECT_EQ(NeedlemanWunschSimilarityScalar("A", "a"), 1.0);
    EXPECT_EQ(SmithWatermanSimilarityScalar("A", "a"), 1.0);
    EXPECT_EQ(NeedlemanWunschSimilarity("\xC0", "\xE0"), 0.0);
    EXPECT_EQ(SmithWatermanSimilarity("\xC0", "\xE0"), 0.0);
    EXPECT_EQ(NeedlemanWunschSimilarityScalar("\xC0", "\xE0"), 0.0);
    EXPECT_EQ(SmithWatermanSimilarityScalar("\xC0", "\xE0"), 0.0);
    // Five folded matches, then the unfolded pair mismatches: 10 / 12.
    EXPECT_EQ(SmithWatermanSimilarity("SONY \xC0", "sony \xE0"),
              10.0 / 12.0);
  };
  // Where a Latin-1 locale is installed, std::tolower would fold 0xC0 to
  // 0xE0 under it; the kernels must not change.
  testing::UnderCAndLatin1Locales(expect_fold);
}

// Random token lists: short words over small alphabets (many near
// misses), with the occasional token longer than 64 bytes.
std::vector<TokenList> RandomTokenLists(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<TokenList> lists;
  for (size_t i = 0; i < count; ++i) {
    const std::string alphabet = Alphabet(rng, 3 + rng.Uniform(10));
    TokenList tokens;
    const size_t n = rng.Uniform(7);
    for (size_t t = 0; t < n; ++t) {
      const size_t len = rng.Bernoulli(0.05) ? 60 + rng.Uniform(20)
                                             : 1 + rng.Uniform(10);
      tokens.push_back(RandomString(rng, alphabet, len));
    }
    lists.push_back(std::move(tokens));
  }
  return lists;
}

double MongeElkanDirectedScalar(const TokenList& a, const TokenList& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double sum = 0.0;
  for (const std::string& ta : a) {
    double best = 0.0;
    for (const std::string& tb : b) {
      best = std::max(best, JaroWinklerSimilarityScalar(ta, tb));
      if (best == 1.0) break;
    }
    sum += best;
  }
  return sum / static_cast<double>(a.size());
}

double SoftTfIdfScalar(const TfIdfModel& model, const TokenList& a,
                       const TokenList& b, double threshold) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const TfIdfVector va = model.Vectorize(a);
  const TfIdfVector vb = model.Vectorize(b);
  double score = 0.0;
  for (const auto& [term_a, weight_a] : va.entries) {
    double best_sim = 0.0;
    double best_weight = 0.0;
    for (const auto& [term_b, weight_b] : vb.entries) {
      const double sim = JaroWinklerSimilarityScalar(term_a, term_b);
      if (sim > best_sim || (sim == best_sim && weight_b > best_weight)) {
        best_sim = sim;
        best_weight = weight_b;
      }
    }
    if (best_sim >= threshold) score += weight_a * best_weight * best_sim;
  }
  return std::min(score, 1.0);
}

std::string Joined(const TokenList& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += t + " ";
  return out;
}

TEST(MongeElkanDifferentialTest, MatchesScalarJaroWinklerLoop) {
  const std::vector<TokenList> lists = RandomTokenLists(31, 4000);
  MismatchLog log;
  for (size_t i = 0; i + 1 < lists.size(); i += 2) {
    const TokenList& a = lists[i];
    const TokenList& b = lists[i + 1];
    const double want =
        (MongeElkanDirectedScalar(a, b) + MongeElkanDirectedScalar(b, a)) /
        2.0;
    log.Check("monge_elkan", MongeElkanSimilarity(a, b), want, Joined(a),
              Joined(b));
  }
  log.ExpectClean();
}

TEST(MongeElkanDifferentialTest, OnePassIdKernelMatchesScalarLoop) {
  // The id kernel's one |a| x |b| pass, reading token bytes through the
  // interner, against the two-pass reference: short tokens over small
  // alphabets, tokens past 64 bytes (no fixed masks), bytes >= 0x80, and
  // shared tokens (the exact-hit skip).
  const std::vector<TokenList> lists = RandomTokenLists(33, 4000);
  TokenInterner interner;
  MismatchLog log;
  for (size_t i = 0; i + 1 < lists.size(); i += 2) {
    TokenList a = lists[i];
    TokenList b = lists[i + 1];
    // Past the kernel's 32 stack rows: a takes the heap rows.
    if (i % 200 == 0) {
      for (size_t t = 0; a.size() < 40; ++t) {
        a.push_back(lists[(i + t) % lists.size()].empty()
                        ? "pad"
                        : lists[(i + t) % lists.size()][0]);
      }
    }
    if (i % 4 == 0 && !a.empty()) b.push_back(a[i % a.size()]);
    TokenIds ia;
    ia.doc = InternDocIds(a, interner);
    ia.sorted = SortedUniqueIds(ia.doc);
    TokenIds ib;
    ib.doc = InternDocIds(b, interner);
    ib.sorted = SortedUniqueIds(ib.doc);
    const double want =
        (MongeElkanDirectedScalar(a, b) + MongeElkanDirectedScalar(b, a)) /
        2.0;
    log.Check("id monge_elkan",
              IdMongeElkan(ia.doc, ia.sorted, ib.doc, ib.sorted, interner),
              want, Joined(a), Joined(b));
  }
  log.ExpectClean();
}

TEST(SoftTfidfDifferentialTest, IdKernelMatchesScalarLoop) {
  const std::vector<TokenList> lists = RandomTokenLists(34, 4000);
  const TfIdfModel model = TfIdfModel::Build(lists);
  TokenInterner interner;
  std::vector<TokenIds> ids;
  for (const TokenList& tokens : lists) {
    ids.push_back({InternDocIds(tokens, interner), {}});
  }
  const auto ranks = interner.LexRanks();
  std::vector<double> idf_by_id;
  for (uint32_t id = 0; id < interner.size(); ++id) {
    idf_by_id.push_back(model.Idf(std::string(interner.Text(id))));
  }
  MismatchLog log;
  for (size_t i = 0; i + 1 < lists.size(); i += 2) {
    const IdWeightVector wa = MakeIdWeightVector(
        MakeIdTfVector(ids[i].doc, *ranks), idf_by_id);
    const IdWeightVector wb = MakeIdWeightVector(
        MakeIdTfVector(ids[i + 1].doc, *ranks), idf_by_id);
    for (const double threshold : {0.0, 0.5, 0.9}) {
      log.Check("id soft_tf_idf",
                IdSoftTfIdf(wa, wb, *ranks, interner, threshold),
                SoftTfIdfScalar(model, lists[i], lists[i + 1], threshold),
                Joined(lists[i]), Joined(lists[i + 1]));
    }
  }
  log.ExpectClean();
}

TEST(SoftTfidfDifferentialTest, MatchesScalarJaroWinklerLoop) {
  const std::vector<TokenList> lists = RandomTokenLists(32, 4000);
  const TfIdfModel model = TfIdfModel::Build(lists);
  MismatchLog log;
  for (size_t i = 0; i + 1 < lists.size(); i += 2) {
    const TokenList& a = lists[i];
    const TokenList& b = lists[i + 1];
    for (const double threshold : {0.0, 0.5, 0.9}) {
      log.Check("soft_tf_idf", SoftTfIdfSimilarity(model, a, b, threshold),
                SoftTfIdfScalar(model, a, b, threshold), Joined(a),
                Joined(b));
    }
  }
  log.ExpectClean();
}

// The four character kernels through the production seam: every
// same-attribute feature of a generated products corpus, computed in
// blocks by PairContext::ComputeFeatureBlock, against the float-quantized
// oracle value on the raw attribute strings.
void CheckFeatureBlocks(const std::vector<SimFunction>& fns,
                        double (*oracle)(SimFunction, std::string_view,
                                         std::string_view)) {
  const GeneratedDataset ds = GenerateDataset(
      ScaleProfile(PaperDatasetProfile(DatasetId::kProducts), 0.01));
  FeatureCatalog catalog(ds.a.schema(), ds.b.schema());
  std::vector<FeatureId> features;
  for (const SimFunction fn : fns) {
    for (AttrIndex attr = 0; attr < ds.a.schema().size(); ++attr) {
      features.push_back(catalog.Intern(Feature{fn, attr, attr}));
    }
  }
  PairContext ctx(ds.a, ds.b, catalog);
  const std::vector<PairId>& pairs = ds.candidates.pairs();
  ASSERT_GT(pairs.size(), 500u);
  constexpr size_t kBlock = 256;
  const std::vector<uint64_t> all_lanes(kBlock / 64, ~uint64_t{0});
  std::vector<float> out(kBlock);
  size_t checks = 0;
  size_t mismatches = 0;
  for (const FeatureId f : features) {
    const Feature& feature = catalog.feature(f);
    for (size_t start = 0; start < pairs.size(); start += kBlock) {
      const size_t n = std::min(kBlock, pairs.size() - start);
      ctx.ComputeFeatureBlock(f, pairs.data() + start, n, all_lanes.data(),
                              out.data());
      for (size_t i = 0; i < n; ++i) {
        const PairId p = pairs[start + i];
        const std::string& va = ds.a.Value(p.a, feature.attr_a);
        const std::string& vb = ds.b.Value(p.b, feature.attr_b);
        const auto want = static_cast<float>(oracle(feature.fn, va, vb));
        ++checks;
        if (std::memcmp(&out[i], &want, sizeof(float)) != 0 &&
            ++mismatches <= 5) {
          ADD_FAILURE() << catalog.Name(f) << ": block " << out[i]
                        << " vs oracle " << want << "\n  a = " << Show(va)
                        << "\n  b = " << Show(vb);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << checks << " checks";
}

TEST(JaroDifferentialTest, FeatureBlockOnProductsCorpus) {
  CheckFeatureBlocks(
      {SimFunction::kJaro, SimFunction::kJaroWinkler},
      [](SimFunction fn, std::string_view a, std::string_view b) {
        return fn == SimFunction::kJaro ? JaroSimilarityScalar(a, b)
                                        : JaroWinklerSimilarityScalar(a, b);
      });
}

TEST(MongeElkanDifferentialTest, FeatureBlockReadsInternerBytes) {
  // PairContext's id columns hold no token strings: ComputeFeatureBlock
  // reads every token's bytes through the interner, on every attribute of
  // the corpus (empty values, numbers, single tokens and titles).
  CheckFeatureBlocks(
      {SimFunction::kMongeElkan},
      [](SimFunction, std::string_view a, std::string_view b) {
        const TokenList ta = AlnumTokenize(a);
        const TokenList tb = AlnumTokenize(b);
        return (MongeElkanDirectedScalar(ta, tb) +
                MongeElkanDirectedScalar(tb, ta)) /
               2.0;
      });
}

TEST(AlignmentDifferentialTest, FeatureBlockOnProductsCorpus) {
  CheckFeatureBlocks(
      {SimFunction::kSmithWaterman, SimFunction::kNeedlemanWunsch},
      [](SimFunction fn, std::string_view a, std::string_view b) {
        return fn == SimFunction::kSmithWaterman
                   ? SmithWatermanSimilarityScalar(a, b)
                   : NeedlemanWunschSimilarityScalar(a, b);
      });
}

}  // namespace
}  // namespace emdbg
