#ifndef EMDBG_TEXT_SIMILARITY_REGISTRY_H_
#define EMDBG_TEXT_SIMILARITY_REGISTRY_H_

#include <string_view>
#include <vector>

#include "src/text/tfidf.h"
#include "src/text/tokenizer.h"
#include "src/util/status.h"

namespace emdbg {

/// The similarity functions available to matching rules — the same catalog
/// as Table 3 of the paper, plus a few extras (overlap, dice, numeric).
/// All return scores in [0, 1].
enum class SimFunction {
  kExactMatch = 0,
  kJaro,
  kJaroWinkler,
  kLevenshtein,
  kCosine,
  kTrigram,
  kJaccard,
  kSoundex,
  kTfIdf,
  kSoftTfIdf,
  kOverlap,
  kDice,
  kNumeric,
  kMongeElkan,       ///< avg best Jaro-Winkler per token (hybrid measure)
  kNeedlemanWunsch,  ///< global affine-gap alignment
  kSmithWaterman,    ///< local affine-gap alignment (substring semantics)
};

/// Number of enumerators in SimFunction (for array sizing / iteration).
inline constexpr int kNumSimFunctions = 16;

/// What token representation a function consumes.
enum class TokenNeed {
  kNone,    ///< works on the raw strings
  kWords,   ///< lower-cased alphanumeric word tokens
  kQGram3,  ///< padded character 3-grams
};

/// Static metadata for one similarity function.
struct SimFunctionInfo {
  SimFunction fn;
  /// Canonical snake_case name used by the rule DSL, e.g. "jaro_winkler".
  const char* name;
  /// Display name matching the paper's Table 3, e.g. "Jaro Winkler".
  const char* display_name;
  TokenNeed tokens;
  /// True for TF-IDF-family functions that need corpus statistics.
  bool needs_tfidf;
  /// True for functions with an interned token-id fast path (PairContext
  /// evaluates them over sorted uint32 id arrays / id-indexed weight
  /// vectors instead of heap-allocated strings; bit-identical results —
  /// see src/text/id_kernels.h).
  bool id_path;
};

/// Metadata lookup. `fn` must be a valid enumerator.
const SimFunctionInfo& GetSimFunctionInfo(SimFunction fn);

/// All functions, in enum order.
const std::vector<SimFunction>& AllSimFunctions();

/// Parses a canonical or display name (case-insensitive; spaces, dashes and
/// underscores are interchangeable). Returns NotFound for unknown names.
Result<SimFunction> SimFunctionFromName(std::string_view name);

/// Computes `fn` over a pair of attribute values, tokenizing as the
/// function needs. `model` must be non-null for TF-IDF-family functions
/// (checked; returns 0.0 and is a programming error caught by tests
/// otherwise).
double ComputeSimilarity(SimFunction fn, std::string_view a,
                         std::string_view b,
                         const TfIdfModel* model = nullptr);

}  // namespace emdbg

#endif  // EMDBG_TEXT_SIMILARITY_REGISTRY_H_
