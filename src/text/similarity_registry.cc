#include "src/text/similarity_registry.h"

#include <array>
#include <string>

#include "src/text/alignment.h"
#include "src/text/cosine.h"
#include "src/text/exact.h"
#include "src/text/jaro.h"
#include "src/text/levenshtein.h"
#include "src/text/monge_elkan.h"
#include "src/text/numeric.h"
#include "src/text/set_similarity.h"
#include "src/text/soft_tfidf.h"
#include "src/text/soundex.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

constexpr std::array<SimFunctionInfo, kNumSimFunctions> kInfos = {{
    {SimFunction::kExactMatch, "exact_match", "Exact Match", TokenNeed::kNone,
     false, false},
    {SimFunction::kJaro, "jaro", "Jaro", TokenNeed::kNone, false, false},
    {SimFunction::kJaroWinkler, "jaro_winkler", "Jaro Winkler",
     TokenNeed::kNone, false, false},
    {SimFunction::kLevenshtein, "levenshtein", "Levenshtein",
     TokenNeed::kNone, false, false},
    {SimFunction::kCosine, "cosine", "Cosine", TokenNeed::kWords, false, true},
    {SimFunction::kTrigram, "trigram", "Trigram", TokenNeed::kQGram3, false,
     true},
    {SimFunction::kJaccard, "jaccard", "Jaccard", TokenNeed::kWords, false,
     true},
    {SimFunction::kSoundex, "soundex", "Soundex", TokenNeed::kNone, false,
     false},
    {SimFunction::kTfIdf, "tf_idf", "TF-IDF", TokenNeed::kWords, true, true},
    {SimFunction::kSoftTfIdf, "soft_tf_idf", "Soft TF-IDF", TokenNeed::kWords,
     true, true},
    {SimFunction::kOverlap, "overlap", "Overlap", TokenNeed::kWords, false,
     true},
    {SimFunction::kDice, "dice", "Dice", TokenNeed::kWords, false, true},
    {SimFunction::kNumeric, "numeric", "Numeric", TokenNeed::kNone, false,
     false},
    {SimFunction::kMongeElkan, "monge_elkan", "Monge-Elkan",
     TokenNeed::kWords, false, true},
    {SimFunction::kNeedlemanWunsch, "needleman_wunsch", "Needleman-Wunsch",
     TokenNeed::kNone, false, false},
    {SimFunction::kSmithWaterman, "smith_waterman", "Smith-Waterman",
     TokenNeed::kNone, false, false},
}};

/// True when `a` and `b` are the same name once spaces, dashes and
/// underscores are dropped and ASCII letters folded: compared in place,
/// with no normalized copy of either.
bool SameName(std::string_view a, std::string_view b) {
  const auto skip = [](std::string_view s, size_t i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '-' || s[i] == '_')) ++i;
    return i;
  };
  size_t i = skip(a, 0);
  size_t j = skip(b, 0);
  while (i < a.size() && j < b.size()) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[j])) return false;
    i = skip(a, i + 1);
    j = skip(b, j + 1);
  }
  return i == a.size() && j == b.size();
}

}  // namespace

const SimFunctionInfo& GetSimFunctionInfo(SimFunction fn) {
  return kInfos[static_cast<size_t>(fn)];
}

const std::vector<SimFunction>& AllSimFunctions() {
  static const std::vector<SimFunction>& all = *new std::vector<SimFunction>(
      [] {
        std::vector<SimFunction> v;
        for (const auto& info : kInfos) v.push_back(info.fn);
        return v;
      }());
  return all;
}

Result<SimFunction> SimFunctionFromName(std::string_view name) {
  for (const auto& info : kInfos) {
    if (SameName(name, info.name) || SameName(name, info.display_name)) {
      return info.fn;
    }
  }
  return Status::NotFound(
      StrFormat("unknown similarity function '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

double ComputeSimilarity(SimFunction fn, std::string_view a,
                         std::string_view b, const TfIdfModel* model) {
  switch (fn) {
    case SimFunction::kExactMatch:
      return ExactMatch(a, b);
    case SimFunction::kJaro:
      return JaroSimilarity(a, b);
    case SimFunction::kJaroWinkler:
      return JaroWinklerSimilarity(a, b);
    case SimFunction::kLevenshtein:
      return LevenshteinSimilarity(a, b);
    case SimFunction::kSoundex:
      return SoundexSimilarity(a, b);
    case SimFunction::kNumeric:
      return NumericSimilarity(a, b);
    case SimFunction::kNeedlemanWunsch:
      return NeedlemanWunschSimilarity(a, b);
    case SimFunction::kSmithWaterman:
      return SmithWatermanSimilarity(a, b);
    default:
      break;
  }
  const bool qgrams = GetSimFunctionInfo(fn).tokens == TokenNeed::kQGram3;
  const TokenList ta = qgrams ? QGramTokenize(a, 3) : AlnumTokenize(a);
  const TokenList tb = qgrams ? QGramTokenize(b, 3) : AlnumTokenize(b);
  switch (fn) {
    case SimFunction::kCosine:
      return CosineSimilarity(ta, tb);
    case SimFunction::kTrigram:
      return JaccardSimilarity(ta, tb);
    case SimFunction::kJaccard:
      return JaccardSimilarity(ta, tb);
    case SimFunction::kOverlap:
      return OverlapCoefficient(ta, tb);
    case SimFunction::kDice:
      return DiceSimilarity(ta, tb);
    case SimFunction::kMongeElkan:
      return MongeElkanSimilarity(ta, tb);
    case SimFunction::kTfIdf:
      if (model == nullptr) return 0.0;
      return model->Similarity(ta, tb);
    case SimFunction::kSoftTfIdf:
      if (model == nullptr) return 0.0;
      return SoftTfIdfSimilarity(*model, ta, tb);
    default:
      return 0.0;
  }
}

}  // namespace emdbg
