#ifndef EMDBG_TEXT_TOKENIZER_H_
#define EMDBG_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/string_util.h"

namespace emdbg {

/// A token sequence in document order (duplicates preserved).
using TokenList = std::vector<std::string>;

/// Tokenization schemes used by set-based similarity functions. The paper
/// computes Jaccard/cosine/TF-IDF over either word tokens or q-grams
/// (footnote 1: "In practice we often compute Jaccard over the sets of
/// q-grams of the two names, e.g., where q = 3").
enum class TokenizerKind {
  kWhitespace,  ///< split on whitespace runs
  kAlnum,       ///< maximal [A-Za-z0-9]+ runs, lower-cased
  kQGram3,      ///< padded character 3-grams, lower-cased
};

const char* TokenizerKindName(TokenizerKind kind);

/// Splits on whitespace runs; no case folding.
TokenList WhitespaceTokenize(std::string_view text);

/// Maximal alphanumeric runs, lower-cased. "Sony DSC-W800" →
/// {"sony","dsc","w800"}.
TokenList AlnumTokenize(std::string_view text);

/// Calls fn(token) for each token AlnumTokenize(text) returns, in order,
/// without a string per token: `buf` receives the lower-cased text and each
/// token is a view into it, valid until `buf` changes. AlnumTokenize runs
/// through this scan, so the two agree by construction.
template <typename Fn>
void ForEachAlnumToken(std::string_view text, std::string& buf, Fn&& fn) {
  buf.assign(text);
  for (char& c : buf) c = AsciiToLower(c);
  const size_t n = buf.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !IsAsciiAlnum(buf[i])) ++i;
    const size_t start = i;
    while (i < n && IsAsciiAlnum(buf[i])) ++i;
    if (i > start) fn(std::string_view(buf.data() + start, i - start));
  }
}

/// Padded character q-grams over the lower-cased string. With q=3,
/// "abc" → {"##a","#ab","abc","bc#","c##"} using '#' padding. Returns an
/// empty list for an empty string.
TokenList QGramTokenize(std::string_view text, size_t q, char pad = '#');

/// Dispatch on `kind`.
TokenList Tokenize(TokenizerKind kind, std::string_view text);

/// Sorted unique view of a token list (set semantics for Jaccard etc.).
std::vector<std::string> ToSortedUnique(const TokenList& tokens);

}  // namespace emdbg

#endif  // EMDBG_TEXT_TOKENIZER_H_
