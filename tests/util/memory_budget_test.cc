#include "src/util/memory_budget.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/fault_injection.h"

namespace emdbg {
namespace {

class MemoryBudgetTest : public ::testing::Test {
 protected:
  MemoryBudgetTest() { FaultInjection::DisarmAll(); }
  ~MemoryBudgetTest() override { FaultInjection::DisarmAll(); }
};

TEST_F(MemoryBudgetTest, UnlimitedBudgetIsPureAccounting) {
  MemoryBudget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_EQ(b.remaining(), SIZE_MAX);
  ASSERT_TRUE(b.Reserve(1'000'000'000).ok());
  EXPECT_EQ(b.used(), 1'000'000'000u);
  EXPECT_EQ(b.peak(), 1'000'000'000u);
  b.Release(1'000'000'000);
  EXPECT_EQ(b.used(), 0u);
  EXPECT_EQ(b.peak(), 1'000'000'000u);  // peak is sticky
}

TEST_F(MemoryBudgetTest, LimitDeniesAndReleasesMakeRoom) {
  MemoryBudget b(1000, "t");
  ASSERT_TRUE(b.Reserve(600).ok());
  ASSERT_TRUE(b.Reserve(400).ok());
  EXPECT_EQ(b.remaining(), 0u);
  Status denied = b.Reserve(1);
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(denied.message().find("'t'"), std::string::npos);
  b.Release(400);
  EXPECT_TRUE(b.Reserve(400).ok());
  EXPECT_EQ(b.stats().denials, 1u);
  EXPECT_EQ(b.used(), 1000u);
}

TEST_F(MemoryBudgetTest, ReleaseNeverUnderflows) {
  MemoryBudget b(100, "t");
  ASSERT_TRUE(b.Reserve(50).ok());
  b.Release(500);  // clamped
  EXPECT_EQ(b.used(), 0u);
  EXPECT_TRUE(b.Reserve(100).ok());
}

TEST_F(MemoryBudgetTest, ChildQuotaChargesParentAndRollsBackOnParentDenial) {
  MemoryBudget root(1000, "root");
  MemoryBudget quota(&root, 800, "s1");
  ASSERT_TRUE(quota.Reserve(700).ok());
  EXPECT_EQ(root.used(), 700u);
  // Fits the child's limit (800) but not the parent's remaining 300: the
  // child's local charge must roll back so its accounting stays exact.
  Status denied = quota.Reserve(400);
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(quota.used(), 700u);
  EXPECT_EQ(root.used(), 700u);
  // Over the child's own limit, parent untouched.
  EXPECT_FALSE(quota.Reserve(200).ok());
  EXPECT_EQ(root.used(), 700u);
  quota.Release(700);
  EXPECT_EQ(root.used(), 0u);
}

TEST_F(MemoryBudgetTest, SiblingQuotasIsolateTenants) {
  MemoryBudget root(0, "root");  // unlimited root, limited children
  MemoryBudget q1(&root, 100, "s1");
  MemoryBudget q2(&root, 100, "s2");
  ASSERT_TRUE(q1.Reserve(100).ok());
  EXPECT_FALSE(q1.Reserve(1).ok());   // s1 is full...
  EXPECT_TRUE(q2.Reserve(100).ok());  // ...but s2 is unaffected
  EXPECT_EQ(root.used(), 200u);
}

TEST_F(MemoryBudgetTest, ChildDestructorReturnsLeakedBytesToParent) {
  MemoryBudget root(1000, "root");
  {
    MemoryBudget quota(&root, 500, "leaky");
    ASSERT_TRUE(quota.Reserve(300).ok());
    // No Release: the consumer "died". The child's destructor must give
    // the bytes back so the shared budget is not permanently shrunk.
  }
  EXPECT_EQ(root.used(), 0u);
}

TEST_F(MemoryBudgetTest, ReclaimersRunInPriorityThenColdnessOrder) {
  MemoryBudget b(100, "t");
  ASSERT_TRUE(b.Reserve(100).ok());
  std::vector<std::string> order;
  // Register out of order: memo shards (latest class) first.
  const uint64_t memo_hot =
      b.AddReclaimer(MemoryBudget::kReclaimMemoShards, "memo-hot",
                     [&](size_t) -> size_t {
                       order.push_back("memo-hot");
                       b.Release(40);
                       return 40;
                     });
  b.AddReclaimer(MemoryBudget::kReclaimMemoShards, "memo-cold",
                 [&](size_t) -> size_t {
                   order.push_back("memo-cold");
                   return 0;
                 });
  const uint64_t ids_hot =
      b.AddReclaimer(MemoryBudget::kReclaimIdCaches, "ids-hot",
                     [&](size_t) -> size_t {
                       order.push_back("ids-hot");
                       return 0;
                     });
  b.AddReclaimer(MemoryBudget::kReclaimIdCaches, "ids-cold",
                 [&](size_t) -> size_t {
                   order.push_back("ids-cold");
                   return 0;
                 });
  b.Touch(ids_hot);   // ids-hot is now warmer than ids-cold
  b.Touch(memo_hot);  // and memo-hot warmer than memo-cold
  ASSERT_TRUE(b.Reserve(30).ok());
  // Cheapest class first (id caches) coldest-first, then the memo shards
  // coldest-first — the warmer shard frees enough, so the walk stops
  // there.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "ids-cold");
  EXPECT_EQ(order[1], "ids-hot");
  EXPECT_EQ(order[2], "memo-cold");
  EXPECT_EQ(order[3], "memo-hot");
  EXPECT_GE(b.stats().reclaim_runs, 1u);
  EXPECT_EQ(b.stats().reclaimed_bytes, 40u);
}

TEST_F(MemoryBudgetTest, ReclaimStopsEarlyOnceTheRequestFits) {
  MemoryBudget b(100, "t");
  ASSERT_TRUE(b.Reserve(100).ok());
  int second_ran = 0;
  b.AddReclaimer(MemoryBudget::kReclaimIdCaches, "first",
                 [&](size_t) -> size_t {
                   b.Release(50);
                   return 50;
                 });
  b.AddReclaimer(MemoryBudget::kReclaimMemoShards, "second",
                 [&](size_t) -> size_t {
                   second_ran++;
                   return 0;
                 });
  ASSERT_TRUE(b.Reserve(20).ok());
  EXPECT_EQ(second_ran, 0);  // the first eviction already made room
}

TEST_F(MemoryBudgetTest, RemovedReclaimerNeverRuns) {
  MemoryBudget b(10, "t");
  ASSERT_TRUE(b.Reserve(10).ok());
  int ran = 0;
  const uint64_t id = b.AddReclaimer(
      MemoryBudget::kReclaimIdCaches, "gone", [&](size_t) -> size_t {
        ran++;
        return 0;
      });
  b.RemoveReclaimer(id);
  EXPECT_FALSE(b.Reserve(5).ok());
  EXPECT_EQ(ran, 0);
}

TEST_F(MemoryBudgetTest, TryReserveNeverRunsReclaimers) {
  MemoryBudget b(100, "t");
  ASSERT_TRUE(b.Reserve(100).ok());
  int ran = 0;
  b.AddReclaimer(MemoryBudget::kReclaimIdCaches, "r",
                 [&](size_t) -> size_t {
                   ran++;
                   b.Release(100);
                   return 100;
                 });
  EXPECT_EQ(b.TryReserve(50).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ran, 0);  // a reclaiming TryReserve would deadlock its caller
  b.Release(60);
  EXPECT_TRUE(b.TryReserve(50).ok());
}

TEST_F(MemoryBudgetTest, TryReservePropagatesToParentWithRollback) {
  MemoryBudget root(100, "root");
  MemoryBudget quota(&root, 0, "s");
  ASSERT_TRUE(root.Reserve(80).ok());
  EXPECT_FALSE(quota.TryReserve(50).ok());
  EXPECT_EQ(quota.used(), 0u);  // local charge rolled back
  EXPECT_TRUE(quota.TryReserve(20).ok());
  EXPECT_EQ(root.used(), 100u);
}

TEST_F(MemoryBudgetTest, MemReserveFaultDeniesEvenWithRoom) {
  MemoryBudget b(0, "t");
  FaultInjection::Plan plan;
  plan.every = 1;
  FaultInjection::Arm("mem.reserve", plan);
  Status s = b.Reserve(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  EXPECT_EQ(b.used(), 0u);
  FaultInjection::DisarmAll();
  EXPECT_TRUE(b.Reserve(1).ok());
}

TEST_F(MemoryBudgetTest, TryReserveSkipsTheFaultSite) {
  MemoryBudget b(0, "t");
  FaultInjection::Plan plan;
  plan.every = 1;
  FaultInjection::Arm("mem.reserve", plan);
  // Billing true-up from inside reclaim callbacks must not be failable.
  EXPECT_TRUE(b.TryReserve(64).ok());
  FaultInjection::DisarmAll();
}

TEST_F(MemoryBudgetTest, ReservationRaiiReleasesOnScopeExit) {
  MemoryBudget b(100, "t");
  {
    Result<MemoryReservation> r = MemoryReservation::Make(&b, 60);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->bytes(), 60u);
    EXPECT_EQ(b.used(), 60u);
    Result<MemoryReservation> denied = MemoryReservation::Make(&b, 60);
    EXPECT_FALSE(denied.ok());
  }
  EXPECT_EQ(b.used(), 0u);
  // Null budget: a no-op reservation that always succeeds.
  Result<MemoryReservation> null_r = MemoryReservation::Make(nullptr, 1 << 30);
  ASSERT_TRUE(null_r.ok());
  EXPECT_EQ(null_r->bytes(), 0u);
}

TEST_F(MemoryBudgetTest, ConcurrentReserveReleaseStaysConsistent) {
  MemoryBudget b(1 << 20, "t");
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (b.Reserve(512).ok()) {
          granted.fetch_add(1, std::memory_order_relaxed);
          b.Release(512);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(b.used(), 0u);
  EXPECT_GT(granted.load(), 0u);
  EXPECT_LE(b.peak(), size_t{1} << 20);  // the limit was never breached
}

}  // namespace
}  // namespace emdbg
