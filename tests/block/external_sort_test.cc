/// Differential suite for the out-of-core blocking layer: the external
/// pair/entry sorters and the external blockers must emit *identical*
/// sequences to their in-memory counterparts — same pairs, same order —
/// whether they stay in RAM or spill runs to disk, because downstream
/// bitmap indexing is positional.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/block/external_blocker.h"
#include "src/block/external_sort.h"
#include "src/block/key_blocker.h"
#include "src/block/sorted_neighborhood.h"
#include "src/util/fault_injection.h"
#include "src/util/memory_budget.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class ExternalSortTest : public ::testing::Test {
 protected:
  ExternalSortTest() { FaultInjection::DisarmAll(); }
  ~ExternalSortTest() override { FaultInjection::DisarmAll(); }

  ExternalSortOptions Opts(const std::string& prefix) {
    ExternalSortOptions o;
    o.spill_dir = ::testing::TempDir();
    o.file_prefix = "extsort_" + prefix;
    return o;
  }

  /// Random pairs with plenty of duplicates (small id space).
  std::vector<PairId> RandomPairs(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<PairId> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(PairId{static_cast<uint32_t>(rng.Uniform(200)),
                           static_cast<uint32_t>(rng.Uniform(300))});
    }
    return out;
  }
};

TEST_F(ExternalSortTest, InMemoryPathMatchesSortAndDedup) {
  const std::vector<PairId> input = RandomPairs(5000, 7);
  CandidateSet expected;
  for (PairId p : input) expected.Add(p);
  expected.SortAndDedup();

  ExternalPairSorter sorter(Opts("mem"));
  for (PairId p : input) ASSERT_TRUE(sorter.Add(p).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_EQ(sorter.num_runs(), 0u) << "5000 pairs should fit in RAM";
  auto drained = sorter.Drain();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(drained->pair(i), expected.pair(i)) << "at " << i;
  }
}

TEST_F(ExternalSortTest, SpillingPathIsBitIdenticalToInMemory) {
  const std::vector<PairId> input = RandomPairs(60000, 11);
  CandidateSet expected;
  for (PairId p : input) expected.Add(p);
  expected.SortAndDedup();

  // A budget small enough to force the run buffer to its floor (8192
  // pairs), so ~60k pairs split into several spilled runs with heavy
  // cross-run duplication.
  MemoryBudget budget(160u << 10, "sort-test");
  ExternalSortOptions opts = Opts("spill");
  opts.budget = &budget;
  ExternalPairSorter sorter(opts);
  for (PairId p : input) ASSERT_TRUE(sorter.Add(p).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_GT(sorter.num_runs(), 1u) << "test did not exercise spilling";
  EXPECT_GT(sorter.spilled_bytes(), 0u);

  auto drained = sorter.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(drained->pair(i), expected.pair(i)) << "at " << i;
  }
  EXPECT_EQ(budget.used(), 0u) << "sorter billing leaked";
}

TEST_F(ExternalSortTest, NextBatchStreamsTheSameSequence) {
  const std::vector<PairId> input = RandomPairs(20000, 13);
  CandidateSet expected;
  for (PairId p : input) expected.Add(p);
  expected.SortAndDedup();

  MemoryBudget budget(160u << 10, "sort-test");
  ExternalSortOptions opts = Opts("batch");
  opts.budget = &budget;
  ExternalPairSorter sorter(opts);
  for (PairId p : input) ASSERT_TRUE(sorter.Add(p).ok());
  ASSERT_TRUE(sorter.Finish().ok());

  std::vector<PairId> streamed;
  while (!sorter.AtEnd()) {
    auto n = sorter.NextBatch(777, &streamed);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
  }
  ASSERT_EQ(streamed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(streamed[i], expected.pair(i)) << "at " << i;
  }
}

TEST_F(ExternalSortTest, EntrySorterReproducesStableSortByKey) {
  // Entries with heavily colliding keys: (key, seq) order must equal a
  // stable_sort by key of the generation sequence.
  Rng rng(17);
  struct Flat {
    std::string key;
    uint32_t row;
    bool from_b;
  };
  std::vector<Flat> input;
  for (uint32_t i = 0; i < 30000; ++i) {
    std::string key = "k";
    key += std::to_string(rng.Uniform(100));
    input.push_back(Flat{std::move(key), i, rng.Uniform(2) == 1});
  }
  std::vector<Flat> expected = input;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Flat& x, const Flat& y) { return x.key < y.key; });

  MemoryBudget budget(256u << 10, "entry-test");
  ExternalSortOptions opts = Opts("entries");
  opts.budget = &budget;
  ExternalEntrySorter sorter(opts);
  for (const Flat& f : input) {
    ASSERT_TRUE(sorter.Add(f.key, f.row, f.from_b).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_GT(sorter.num_runs(), 1u) << "test did not exercise spilling";

  size_t i = 0;
  BlockEntry e;
  while (!sorter.AtEnd()) {
    ASSERT_TRUE(sorter.Next(&e).ok());
    ASSERT_LT(i, expected.size());
    ASSERT_EQ(e.key, expected[i].key) << "at " << i;
    ASSERT_EQ(e.row, expected[i].row) << "at " << i;
    ASSERT_EQ(e.from_b, expected[i].from_b) << "at " << i;
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

TEST_F(ExternalSortTest, InjectedSpillFaultSurfacesCleanly) {
  MemoryBudget budget(160u << 10, "fault-test");
  ExternalSortOptions opts = Opts("fault");
  opts.budget = &budget;
  ExternalPairSorter sorter(opts);
  FaultInjection::Plan plan;
  plan.every = 1;
  plan.skip = 2;  // let a couple of frames through, then fail
  FaultInjection::Arm("spill.write", plan);
  Status failed = Status::Ok();
  for (PairId p : RandomPairs(60000, 19)) {
    failed = sorter.Add(p);
    if (!failed.ok()) break;
  }
  if (failed.ok()) failed = sorter.Finish();
  FaultInjection::DisarmAll();
  EXPECT_EQ(failed.code(), StatusCode::kIoError)
      << "fault should have fired during run spilling";
}

class ExternalBlockerTest : public ::testing::Test {
 protected:
  ExternalSortOptions Opts(const std::string& prefix) {
    ExternalSortOptions o;
    o.spill_dir = ::testing::TempDir();
    o.file_prefix = "extblock_" + prefix;
    return o;
  }

  static void ExpectSameSet(const CandidateSet& external,
                            const CandidateSet& memory) {
    ASSERT_EQ(external.size(), memory.size());
    for (size_t i = 0; i < memory.size(); ++i) {
      ASSERT_EQ(external.pair(i), memory.pair(i)) << "at " << i;
    }
  }
};

TEST_F(ExternalBlockerTest, KeyBlockerIdenticalOnGeneratedData) {
  const GeneratedDataset ds = testing::SmallProducts(21);
  auto memory = KeyBlocker("category").Block(ds.a, ds.b);
  ASSERT_TRUE(memory.ok());

  ExternalKeyBlocker::Options opts;
  opts.attribute = "category";
  opts.sort = Opts("key");
  // Tiny entry buffers force run spilling even on this small dataset.
  opts.sort.buffer_bytes = 1;
  MemoryBudget budget(256u << 10, "blocker-test");
  opts.sort.budget = &budget;
  auto external = ExternalKeyBlocker(opts).Block(ds.a, ds.b);
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  ExpectSameSet(*external, *memory);
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(ExternalBlockerTest, KeyBlockerIdenticalOnPeopleTables) {
  const Table a = testing::PeopleTableA();
  const Table b = testing::PeopleTableB();
  auto memory = KeyBlocker("zip").Block(a, b);
  ASSERT_TRUE(memory.ok());

  ExternalKeyBlocker::Options opts;
  opts.attribute = "zip";
  opts.sort = Opts("zip");
  auto external = ExternalKeyBlocker(opts).Block(a, b);
  ASSERT_TRUE(external.ok());
  ExpectSameSet(*external, *memory);
}

TEST_F(ExternalBlockerTest, KeyBlockerRejectsMissingAttribute) {
  const Table a = testing::PeopleTableA();
  const Table b = testing::PeopleTableB();
  ExternalKeyBlocker::Options opts;
  opts.attribute = "no_such_attr";
  opts.sort = Opts("missing");
  EXPECT_FALSE(ExternalKeyBlocker(opts).Block(a, b).ok());
}

TEST_F(ExternalBlockerTest, SortedNeighborhoodIdenticalAcrossWindows) {
  const GeneratedDataset ds = testing::SmallProducts(23);
  for (size_t window : {2u, 5u, 9u}) {
    auto memory =
        SortedNeighborhoodBlocker("title", window).Block(ds.a, ds.b);
    ASSERT_TRUE(memory.ok());

    ExternalSortedNeighborhoodBlocker::Options opts;
    opts.attribute = "title";
    opts.window = window;
    opts.sort = Opts("sn" + std::to_string(window));
    opts.sort.buffer_bytes = 1;  // force spilled entry runs
    MemoryBudget budget(256u << 10, "blocker-test");
    opts.sort.budget = &budget;
    auto external =
        ExternalSortedNeighborhoodBlocker(opts).Block(ds.a, ds.b);
    ASSERT_TRUE(external.ok()) << external.status().ToString();
    ASSERT_EQ(external->size(), memory->size()) << "window " << window;
    for (size_t i = 0; i < memory->size(); ++i) {
      ASSERT_EQ(external->pair(i), memory->pair(i))
          << "window " << window << " at " << i;
    }
  }
}

TEST_F(ExternalBlockerTest, SortedNeighborhoodKeysFoldAsciiOnly) {
  // The external blocker's keys fold like the in-memory blocker's: 'A'-'Z'
  // only, bytes >= 0x80 dropped as non-alphanumeric (see
  // SortedNeighborhoodTest.KeysFoldAsciiOnly).
  Table a("A", Schema({"name"}));
  Table b("B", Schema({"name"}));
  for (const char* v : {"MANGO", "\xC0\xC1"}) {
    ASSERT_TRUE(a.AppendRow({v}).ok());
  }
  for (const char* v : {"mango", "apple", "\xE0\xE1"}) {
    ASSERT_TRUE(b.AppendRow({v}).ok());
  }
  testing::UnderCAndLatin1Locales([&] {
    auto memory = SortedNeighborhoodBlocker("name", 2).Block(a, b);
    ASSERT_TRUE(memory.ok());
    ExternalSortedNeighborhoodBlocker::Options opts;
    opts.attribute = "name";
    opts.window = 2;
    opts.sort = Opts("sn_fold");
    auto external = ExternalSortedNeighborhoodBlocker(opts).Block(a, b);
    ASSERT_TRUE(external.ok()) << external.status().ToString();
    ExpectSameSet(*external, *memory);
    // Sorted folded keys apple, MANGO, mango: MANGO sits next to both.
    // The 0xC0 and 0xE0 rows have empty keys and block with nothing.
    EXPECT_EQ(external->pairs(), (std::vector<PairId>{{0, 0}, {0, 1}}));
  });
}

}  // namespace
}  // namespace emdbg
