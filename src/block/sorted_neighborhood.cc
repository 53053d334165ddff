#include "src/block/sorted_neighborhood.h"

#include <algorithm>
#include <vector>

#include "src/util/string_util.h"

namespace emdbg {

namespace {

/// Sorting key: first `prefix` alphanumeric characters, lower-cased.
std::string MakeKey(const std::string& value, size_t prefix) {
  std::string key;
  key.reserve(prefix);
  for (char c : value) {
    if (IsAsciiAlnum(c)) {
      key.push_back(AsciiToLower(c));
      if (key.size() >= prefix) break;
    }
  }
  return key;
}

struct Entry {
  std::string key;
  uint32_t row;
  bool from_b;
};

}  // namespace

Result<CandidateSet> SortedNeighborhoodBlocker::Block(const Table& a,
                                                      const Table& b) const {
  Result<AttrIndex> a_attr = a.schema().Find(attribute_);
  if (!a_attr.ok()) return a_attr.status();
  Result<AttrIndex> b_attr = b.schema().Find(attribute_);
  if (!b_attr.ok()) return b_attr.status();

  std::vector<Entry> entries;
  entries.reserve(a.num_rows() + b.num_rows());
  for (uint32_t row = 0; row < a.num_rows(); ++row) {
    std::string key = MakeKey(a.Value(row, *a_attr), key_prefix_);
    if (key.empty()) continue;  // records without a key cannot block
    entries.push_back(Entry{std::move(key), row, false});
  }
  for (uint32_t row = 0; row < b.num_rows(); ++row) {
    std::string key = MakeKey(b.Value(row, *b_attr), key_prefix_);
    if (key.empty()) continue;
    entries.push_back(Entry{std::move(key), row, true});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& x, const Entry& y) {
                     return x.key < y.key;
                   });

  CandidateSet out;
  // Slide the window: pair each entry with the A/B-opposite entries among
  // the previous window-1 entries.
  for (size_t i = 0; i < entries.size(); ++i) {
    const size_t start = i >= window_ - 1 ? i - (window_ - 1) : 0;
    for (size_t j = start; j < i; ++j) {
      if (entries[i].from_b == entries[j].from_b) continue;
      const Entry& ea = entries[i].from_b ? entries[j] : entries[i];
      const Entry& eb = entries[i].from_b ? entries[i] : entries[j];
      out.Add(PairId{ea.row, eb.row});
    }
  }
  out.SortAndDedup();
  return out;
}

}  // namespace emdbg
