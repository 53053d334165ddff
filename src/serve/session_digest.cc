#include "src/serve/session_digest.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/rule_parser.h"
#include "src/util/crc32c.h"

namespace emdbg {

namespace {

/// One rule's digest line: its DSL with the predicates sorted by their
/// own DSL, so one CNF written in any predicate order (or permuted by the
/// optimizer) gives one line. A one-predicate rule's line is exactly
/// RuleToDsl's.
std::string SortedRuleDsl(const Rule& rule, const FeatureCatalog& catalog) {
  std::vector<std::string> preds;
  preds.reserve(rule.size());
  for (const Predicate& p : rule.predicates()) {
    preds.push_back(PredicateToDsl(p, catalog));
  }
  std::vector<size_t> order(rule.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return preds[x] < preds[y]; });
  Rule sorted = rule;
  sorted.Permute(order);
  return RuleToDsl(sorted, catalog);
}

}  // namespace

uint32_t SessionStateDigest(DebugSession& session) {
  const Bitmap& matches = session.Run();
  // The rules vector and each rule's predicates are kept in evaluation
  // order, which the cost model is free to permute between runs (and a
  // recovered session replays edits in a different order than the
  // original saw them). The digest fingerprints logical state, so hash
  // the rules as a sorted multiset of lines, each with sorted predicates.
  std::vector<std::string> lines;
  lines.reserve(session.function().rules().size());
  for (const Rule& rule : session.function().rules()) {
    // Empty rules have no DSL form; fold in a stable marker instead.
    if (rule.empty()) {
      lines.push_back("!empty " + rule.name());
    } else {
      lines.push_back(SortedRuleDsl(rule, session.catalog()));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string rules_text;
  for (const std::string& line : lines) {
    rules_text += line;
    rules_text += "\n";
  }
  uint32_t crc = Crc32c(rules_text);
  const std::vector<uint64_t>& words = matches.words();
  crc = Crc32cExtend(crc, words.data(), words.size() * sizeof(uint64_t));
  return crc;
}

}  // namespace emdbg
