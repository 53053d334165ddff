#include "src/data/candidate_io.h"

#include <charconv>
#include <string_view>

#include "src/util/csv.h"
#include "src/util/string_util.h"

namespace emdbg {

Status SaveCandidatesCsv(const CandidateSet& candidates,
                         const PairLabels* labels,
                         const std::string& path) {
  if (labels != nullptr && labels->size() != candidates.size()) {
    return Status::InvalidArgument(
        "labels size must match candidate count");
  }
  const std::string_view header =
      labels != nullptr ? "a,b,label\n" : "a,b\n";
  constexpr size_t kDigits = 10;  // of the largest uint32
  constexpr size_t kMaxRowBytes = 2 * kDigits + 4;  // "a,b,label\n"
  // Reserved, not filled: only the pages the rows are written to are
  // touched.
  std::string out;
  out.reserve(header.size() + candidates.size() * kMaxRowBytes);
  out += header;
  char row[kMaxRowBytes];
  for (size_t i = 0; i < candidates.size(); ++i) {
    const PairId p = candidates.pair(i);
    char* pos = std::to_chars(row, row + kDigits, p.a).ptr;
    *pos++ = ',';
    pos = std::to_chars(pos, pos + kDigits, p.b).ptr;
    if (labels != nullptr) {
      *pos++ = ',';
      *pos++ = labels->Get(i) ? '1' : '0';
    }
    *pos++ = '\n';
    out.append(row, pos);
  }
  return WriteStringToFile(path, out);
}

Result<LoadedCandidates> LoadCandidatesCsv(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  CsvParser parser(*text);
  CsvRow header;
  if (!parser.NextRow(&header)) {
    if (!parser.status().ok()) {
      return Status(parser.status().code(),
                    StrFormat("%s: %s", path.c_str(),
                              parser.status().message().c_str()));
    }
    return Status::ParseError(
        StrFormat("%s: empty candidate file", path.c_str()));
  }
  if (header.size() < 2 || header[0] != "a" || header[1] != "b") {
    return Status::ParseError(
        StrFormat("%s: expected header 'a,b[,label]'", path.c_str()));
  }
  const bool has_labels = header.size() >= 3 && header[2] == "label";

  LoadedCandidates out;
  out.has_labels = has_labels;
  std::vector<bool> label_bits;
  CsvRow row;
  while (parser.NextRow(&row)) {
    if (row.size() == 1 && row[0].empty()) continue;  // trailing newline
    if (row.size() != header.size()) {
      return Status::ParseError(
          StrFormat("%s: line %zu: expected %zu fields, got %zu",
                    path.c_str(), parser.line(), header.size(),
                    row.size()));
    }
    int64_t a = 0;
    int64_t b = 0;
    if (!ParseInt64(row[0], &a) || !ParseInt64(row[1], &b) || a < 0 ||
        b < 0) {
      return Status::ParseError(StrFormat("%s: line %zu: bad pair indices",
                                          path.c_str(), parser.line()));
    }
    out.candidates.Add(
        PairId{static_cast<uint32_t>(a), static_cast<uint32_t>(b)});
    if (has_labels) {
      int64_t label = 0;
      if (!ParseInt64(row[2], &label) || (label != 0 && label != 1)) {
        return Status::ParseError(
            StrFormat("%s: line %zu: label must be 0 or 1", path.c_str(),
                      parser.line()));
      }
      label_bits.push_back(label == 1);
    }
  }
  if (!parser.status().ok()) {
    return Status(parser.status().code(),
                  StrFormat("%s: %s", path.c_str(),
                            parser.status().message().c_str()));
  }
  if (has_labels) {
    out.labels = PairLabels(out.candidates.size());
    for (size_t i = 0; i < label_bits.size(); ++i) {
      if (label_bits[i]) out.labels.Set(i);
    }
  }
  return out;
}

}  // namespace emdbg
