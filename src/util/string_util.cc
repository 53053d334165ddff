#include "src/util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace emdbg {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::string_view TrimAscii(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) ++begin;
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    const size_t start = i;
    while (i < s.size() && !IsAsciiSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) {
      return false;
    }
  }
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  s = TrimAscii(s);
  if (s.empty() || s.size() > 64) return false;
  char buf[65];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimAscii(s);
  if (s.empty() || s.size() > 32) return false;
  char buf[33];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace emdbg
