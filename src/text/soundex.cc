#include "src/text/soundex.h"

#include <algorithm>

#include "src/text/set_similarity.h"
#include "src/text/tokenizer.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

// Soundex digit for an upper-case letter; '0' for vowels and similar
// "ignored" letters, '-' for H/W (which are transparent for adjacency).
char SoundexDigit(char upper) {
  switch (upper) {
    case 'B':
    case 'F':
    case 'P':
    case 'V':
      return '1';
    case 'C':
    case 'G':
    case 'J':
    case 'K':
    case 'Q':
    case 'S':
    case 'X':
    case 'Z':
      return '2';
    case 'D':
    case 'T':
      return '3';
    case 'L':
      return '4';
    case 'M':
    case 'N':
      return '5';
    case 'R':
      return '6';
    case 'H':
    case 'W':
      return '-';
    default:
      return '0';  // A E I O U Y
  }
}

}  // namespace

std::string SoundexCode(std::string_view word) {
  std::string letters;
  letters.reserve(word.size());
  for (char c : word) {
    if (IsAsciiAlpha(c)) letters.push_back(AsciiToUpper(c));
  }
  if (letters.empty()) return "";
  std::string code;
  code.push_back(letters[0]);
  char last_digit = SoundexDigit(letters[0]);
  for (size_t i = 1; i < letters.size() && code.size() < 4; ++i) {
    const char d = SoundexDigit(letters[i]);
    if (d == '-') continue;  // H/W: transparent, keep last_digit as-is
    if (d != '0' && d != last_digit) code.push_back(d);
    last_digit = d;
  }
  while (code.size() < 4) code.push_back('0');
  return code;
}

double SoundexSimilarity(std::string_view a, std::string_view b) {
  TokenList codes_a;
  for (const std::string& t : WhitespaceTokenize(a)) {
    std::string code = SoundexCode(t);
    if (!code.empty()) codes_a.push_back(std::move(code));
  }
  TokenList codes_b;
  for (const std::string& t : WhitespaceTokenize(b)) {
    std::string code = SoundexCode(t);
    if (!code.empty()) codes_b.push_back(std::move(code));
  }
  return JaccardSimilarity(codes_a, codes_b);
}

size_t SoundexCodeCapacity(std::string_view text) {
  size_t tokens = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    tokens += !IsAsciiSpace(text[i]) &&
              (i == 0 || IsAsciiSpace(text[i - 1]));
  }
  return tokens;
}

size_t SortedSoundexCodes(std::string_view text, uint32_t* out) {
  size_t count = 0;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsAsciiSpace(text[i])) ++i;
    const size_t start = i;
    while (i < text.size() && !IsAsciiSpace(text[i])) ++i;
    if (i == start) break;
    const std::string code = SoundexCode(text.substr(start, i - start));
    if (code.empty()) continue;
    uint32_t packed = 0;
    for (const char c : code) {
      packed = (packed << 8) | static_cast<unsigned char>(c);
    }
    out[count++] = packed;
  }
  std::sort(out, out + count);
  return static_cast<size_t>(std::unique(out, out + count) - out);
}

}  // namespace emdbg
