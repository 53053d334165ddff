#ifndef EMDBG_UTIL_STRING_UTIL_H_
#define EMDBG_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace emdbg {

/// ASCII-only helpers. Entity-matching corpora in this repo are synthetic
/// ASCII, so we avoid locale machinery on purpose.

/// Byte classes and case folding that ignore the process locale. The
/// <cctype> functions follow LC_CTYPE: under a Latin-1 locale they call
/// 0xC0 a letter and fold it to 0xE0, so tokens, scores and blocking keys
/// would depend on the embedding program's locale. Here only 'A'-'Z',
/// 'a'-'z' and '0'-'9' are letters or digits, only 'A'-'Z' / 'a'-'z'
/// fold, and bytes >= 0x80 are neither and never fold.
constexpr bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
/// Space, tab, newline, carriage return, form feed and vertical tab: the
/// separators of TrimAscii and SplitWhitespace.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
constexpr bool IsAsciiAlnum(char c) {
  return IsAsciiAlpha(c) || IsAsciiDigit(c);
}
constexpr char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
constexpr char AsciiToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Lower-cases ASCII letters; other bytes pass through.
std::string ToLowerAscii(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Splits on `delim`; keeps empty fields ("a,,b" → {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on runs of ASCII whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a double, requiring the whole string to be consumed.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer, requiring the whole string to be consumed.
bool ParseInt64(std::string_view s, int64_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace emdbg

#endif  // EMDBG_UTIL_STRING_UTIL_H_
