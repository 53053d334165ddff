#ifndef EMDBG_TESTS_TEST_UTIL_H_
#define EMDBG_TESTS_TEST_UTIL_H_

#include <clocale>
#include <functional>
#include <string>
#include <vector>

#include "src/block/candidate_pairs.h"
#include "src/core/feature.h"
#include "src/core/matching_function.h"
#include "src/data/generator.h"
#include "src/data/table.h"

namespace emdbg::testing {

/// Runs `check` under the process's LC_CTYPE, then again under the first
/// installed Latin-1 locale, if any (under one, <cctype> calls 0xC0 a
/// letter and folds it to 0xE0), and restores the locale. Only C and
/// C.UTF-8 may be installed: then the check pins the ASCII-only
/// construction, and the Latin-1 run is skipped.
inline void UnderCAndLatin1Locales(const std::function<void()>& check) {
  check();
  const std::string saved = std::setlocale(LC_CTYPE, nullptr);
  for (const char* name :
       {"en_US.ISO-8859-1", "en_US.iso88591", "de_DE.ISO-8859-1"}) {
    if (std::setlocale(LC_CTYPE, name) != nullptr) {
      check();
      break;
    }
  }
  std::setlocale(LC_CTYPE, saved.c_str());
}

/// The Figure 2 tables from the paper, plus a couple of extra rows:
/// people with name / phone / zip / street attributes.
inline Table PeopleTableA() {
  Table t("A", Schema({"name", "phone", "zip", "street"}));
  (void)t.AppendRow({"John Smith", "206-453-1978", "53703", "12 main st"});
  (void)t.AppendRow({"Bob Jones", "206-453-1978", "53703", "240 elm ave"});
  (void)t.AppendRow({"Alice Kramer", "312-555-0000", "60601", "77 lake dr"});
  return t;
}

inline Table PeopleTableB() {
  Table t("B", Schema({"name", "phone", "zip", "street"}));
  (void)t.AppendRow({"John Smith", "453 1978", "53703", "12 main st"});
  (void)t.AppendRow({"John Smyth", "206-453-1978", "53704", "12 main st"});
  (void)t.AppendRow({"Roberta Jones", "206-111-2222", "53703", "240 elm"});
  (void)t.AppendRow({"A. Kramer", "312-555-0000", "60601", "77 lake dr"});
  return t;
}

/// All |A| x |B| pairs as candidates.
inline CandidateSet AllPairs(const Table& a, const Table& b) {
  CandidateSet out;
  for (uint32_t i = 0; i < a.num_rows(); ++i) {
    for (uint32_t j = 0; j < b.num_rows(); ++j) {
      out.Add(PairId{i, j});
    }
  }
  return out;
}

/// A small generated dataset shared by matcher / incremental tests —
/// large enough for non-trivial selectivities, small enough to stay fast.
inline GeneratedDataset SmallProducts(uint64_t seed = 99) {
  DatasetProfile p;
  p.name = "test_products";
  p.table_a_rows = 60;
  p.table_b_rows = 120;
  p.candidate_pairs = 900;
  p.twin_fraction = 0.5;
  p.attributes = {
      {"title", AttrKind::kTitle, 0.5, 0.02},
      {"modelno", AttrKind::kModelNo, 0.3, 0.05},
      {"brand", AttrKind::kBrand, 0.25, 0.02},
      {"category", AttrKind::kCategory, 0.1, 0.01},
      {"price", AttrKind::kPrice, 0.5, 0.1},
  };
  p.num_categories = 6;
  p.seed = seed;
  return GenerateDataset(p);
}

}  // namespace emdbg::testing

#endif  // EMDBG_TESTS_TEST_UTIL_H_
