#ifndef EMDBG_TEXT_SOUNDEX_H_
#define EMDBG_TEXT_SOUNDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace emdbg {

/// American Soundex code of `word` (e.g. "Robert" → "R163"). Non-letter
/// characters are ignored; an input with no letters yields "".
std::string SoundexCode(std::string_view word);

/// Phonetic similarity of two strings: each is whitespace-tokenized, every
/// token is Soundex-encoded, and the result is the Jaccard similarity of the
/// two code sets. Single-token inputs therefore reduce to code equality
/// (0 or 1).
double SoundexSimilarity(std::string_view a, std::string_view b);

/// Most codes SortedSoundexCodes writes for `text`: its number of
/// whitespace-separated tokens.
size_t SoundexCodeCapacity(std::string_view text);

/// The distinct Soundex codes of `text`'s tokens as packed 32-bit codes,
/// sorted. Tokens are split on SplitWhitespace's separators and encoded by
/// SoundexCode; a token with no letter has no code. A code is a letter and
/// three digits, packed as its four bytes (c0 << 24 | c1 << 16 | c2 << 8 |
/// c3), so equal codes pack equal and distinct ones distinct, and Jaccard
/// over the packed sets (IdJaccard) equals SoundexSimilarity. Writes up to
/// SoundexCodeCapacity(text) codes to `out` and returns how many
/// are distinct (the prefix holding them).
size_t SortedSoundexCodes(std::string_view text, uint32_t* out);

}  // namespace emdbg

#endif  // EMDBG_TEXT_SOUNDEX_H_
