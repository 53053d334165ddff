#include "src/block/external_blocker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/util/string_util.h"

namespace emdbg {

namespace {

/// Sorting key for sorted-neighborhood: first `prefix` alphanumeric
/// characters, lower-cased — identical to the in-memory blocker's.
std::string SnKey(const std::string& value, size_t prefix) {
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

/// Feeds both tables' rows into the entry sorter: A rows first, then B
/// rows, matching the generation order the in-memory blockers stable-sort.
/// `make_key` maps an attribute value to the blocking key ("" = skip).
template <typename KeyFn>
Status AddEntries(const Table& a, AttrIndex a_attr, const Table& b,
                  AttrIndex b_attr, KeyFn make_key,
                  ExternalEntrySorter* sorter) {
  for (uint32_t row = 0; row < a.num_rows(); ++row) {
    std::string key = make_key(a.Value(row, a_attr));
    if (key.empty()) continue;
    EMDBG_RETURN_IF_ERROR(sorter->Add(std::move(key), row, false));
  }
  for (uint32_t row = 0; row < b.num_rows(); ++row) {
    std::string key = make_key(b.Value(row, b_attr));
    if (key.empty()) continue;
    EMDBG_RETURN_IF_ERROR(sorter->Add(std::move(key), row, true));
  }
  return sorter->Finish();
}

}  // namespace

Status ExternalKeyBlocker::BlockToSorter(const Table& a, const Table& b,
                                         ExternalPairSorter* out) const {
  Result<AttrIndex> a_attr = a.schema().Find(options_.attribute);
  if (!a_attr.ok()) return a_attr.status();
  Result<AttrIndex> b_attr = b.schema().Find(options_.attribute);
  if (!b_attr.ok()) return b_attr.status();

  ExternalSortOptions entry_opts = options_.sort;
  entry_opts.file_prefix = options_.sort.file_prefix + "-keyent";
  ExternalEntrySorter entries(entry_opts);
  EMDBG_RETURN_IF_ERROR(AddEntries(
      a, *a_attr, b, *b_attr,
      [](const std::string& v) { return ToLowerAscii(TrimAscii(v)); },
      &entries));

  // Scan groups of equal key. Within a group, seq order puts all A rows
  // (added first, in row order) before all B rows, so buffering the
  // A side and streaming the B side emits the full cross product while
  // holding only one group's A rows in memory.
  std::string group_key;
  std::vector<uint32_t> group_a;
  bool in_group = false;
  BlockEntry e;
  while (!entries.AtEnd()) {
    EMDBG_RETURN_IF_ERROR(entries.Next(&e));
    if (!in_group || e.key != group_key) {
      group_key = std::move(e.key);
      group_a.clear();
      in_group = true;
    }
    if (!e.from_b) {
      group_a.push_back(e.row);
    } else {
      for (uint32_t a_row : group_a) {
        EMDBG_RETURN_IF_ERROR(out->Add(PairId{a_row, e.row}));
      }
    }
  }
  return out->Finish();
}

Result<CandidateSet> ExternalKeyBlocker::Block(const Table& a,
                                               const Table& b) const {
  ExternalSortOptions pair_opts = options_.sort;
  pair_opts.file_prefix = options_.sort.file_prefix + "-keypair";
  ExternalPairSorter pairs(pair_opts);
  EMDBG_RETURN_IF_ERROR(BlockToSorter(a, b, &pairs));
  return pairs.Drain();
}

Status ExternalSortedNeighborhoodBlocker::BlockToSorter(
    const Table& a, const Table& b, ExternalPairSorter* out) const {
  Result<AttrIndex> a_attr = a.schema().Find(options_.attribute);
  if (!a_attr.ok()) return a_attr.status();
  Result<AttrIndex> b_attr = b.schema().Find(options_.attribute);
  if (!b_attr.ok()) return b_attr.status();

  ExternalSortOptions entry_opts = options_.sort;
  entry_opts.file_prefix = options_.sort.file_prefix + "-snent";
  ExternalEntrySorter entries(entry_opts);
  const size_t prefix = options_.key_prefix;
  EMDBG_RETURN_IF_ERROR(AddEntries(
      a, *a_attr, b, *b_attr,
      [prefix](const std::string& v) { return SnKey(v, prefix); },
      &entries));

  // Slide the window over the (key, seq)-sorted stream — the same
  // sequence the in-memory blocker's stable_sort yields — keeping only
  // the previous window-1 entries in a ring buffer.
  struct Slot {
    uint32_t row;
    bool from_b;
  };
  const size_t span = options_.window - 1;
  std::vector<Slot> ring(span);
  size_t seen = 0;
  BlockEntry e;
  while (!entries.AtEnd()) {
    EMDBG_RETURN_IF_ERROR(entries.Next(&e));
    const Slot cur{e.row, e.from_b};
    const size_t lookback = std::min(seen, span);
    for (size_t k = 0; k < lookback; ++k) {
      const Slot& prev = ring[(seen - 1 - k) % span];
      if (prev.from_b == cur.from_b) continue;
      const uint32_t a_row = cur.from_b ? prev.row : cur.row;
      const uint32_t b_row = cur.from_b ? cur.row : prev.row;
      EMDBG_RETURN_IF_ERROR(out->Add(PairId{a_row, b_row}));
    }
    ring[seen % span] = cur;
    ++seen;
  }
  return out->Finish();
}

Result<CandidateSet> ExternalSortedNeighborhoodBlocker::Block(
    const Table& a, const Table& b) const {
  ExternalSortOptions pair_opts = options_.sort;
  pair_opts.file_prefix = options_.sort.file_prefix + "-snpair";
  ExternalPairSorter pairs(pair_opts);
  EMDBG_RETURN_IF_ERROR(BlockToSorter(a, b, &pairs));
  return pairs.Drain();
}

}  // namespace emdbg
