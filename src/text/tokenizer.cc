#include "src/text/tokenizer.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace emdbg {

const char* TokenizerKindName(TokenizerKind kind) {
  switch (kind) {
    case TokenizerKind::kWhitespace:
      return "whitespace";
    case TokenizerKind::kAlnum:
      return "alnum";
    case TokenizerKind::kQGram3:
      return "qgram3";
  }
  return "unknown";
}

TokenList WhitespaceTokenize(std::string_view text) {
  return SplitWhitespace(text);
}

TokenList AlnumTokenize(std::string_view text) {
  TokenList out;
  std::string buf;
  ForEachAlnumToken(text, buf, [&out](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

TokenList QGramTokenize(std::string_view text, size_t q, char pad) {
  TokenList out;
  if (text.empty() || q == 0) return out;
  std::string padded;
  padded.reserve(text.size() + 2 * (q - 1));
  padded.append(q - 1, pad);
  for (char c : text) padded.push_back(AsciiToLower(c));
  padded.append(q - 1, pad);
  out.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    out.push_back(padded.substr(i, q));
  }
  return out;
}

TokenList Tokenize(TokenizerKind kind, std::string_view text) {
  switch (kind) {
    case TokenizerKind::kWhitespace:
      return WhitespaceTokenize(text);
    case TokenizerKind::kAlnum:
      return AlnumTokenize(text);
    case TokenizerKind::kQGram3:
      return QGramTokenize(text, 3);
  }
  return {};
}

std::vector<std::string> ToSortedUnique(const TokenList& tokens) {
  std::vector<std::string> out = tokens;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace emdbg
