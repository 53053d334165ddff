#include "src/core/pair_context.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/memory_budget.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class PairContextTest : public ::testing::Test {
 protected:
  PairContextTest()
      : a_(testing::PeopleTableA()),
        b_(testing::PeopleTableB()),
        catalog_(a_.schema(), b_.schema()) {}

  Table a_;
  Table b_;
  FeatureCatalog catalog_;
};

TEST_F(PairContextTest, ComputesExactMatch) {
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kExactMatch, "zip", "zip");
  PairContext ctx(a_, b_, catalog_);
  EXPECT_DOUBLE_EQ(ctx.ComputeFeature(f, {0, 0}), 1.0);  // 53703 == 53703
  EXPECT_DOUBLE_EQ(ctx.ComputeFeature(f, {0, 1}), 0.0);  // != 53704
}

TEST_F(PairContextTest, TokenBasedFeatureMatchesRegistry) {
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kJaccard, "name", "name");
  PairContext ctx(a_, b_, catalog_);
  const double via_ctx = ctx.ComputeFeature(f, {0, 1});
  const double direct = ComputeSimilarity(
      SimFunction::kJaccard, a_.Value(0, 0), b_.Value(1, 0));
  // The context quantizes to float (memo consistency); compare at float
  // precision.
  EXPECT_DOUBLE_EQ(via_ctx, static_cast<double>(static_cast<float>(direct)));
}

TEST_F(PairContextTest, CachingDoesNotChangeValues) {
  const FeatureId jac =
      *catalog_.InternByName(SimFunction::kJaccard, "street", "street");
  const FeatureId tri =
      *catalog_.InternByName(SimFunction::kTrigram, "name", "name");
  PairContext cached(a_, b_, catalog_);
  PairContext strings(a_, b_, catalog_,
                      PairContext::Options{.intern_tokens = false});
  PairContext uncached(a_, b_, catalog_,
                       PairContext::Options{.cache_tokens = false});
  for (uint32_t i = 0; i < a_.num_rows(); ++i) {
    for (uint32_t j = 0; j < b_.num_rows(); ++j) {
      EXPECT_DOUBLE_EQ(cached.ComputeFeature(jac, {i, j}),
                       uncached.ComputeFeature(jac, {i, j}));
      EXPECT_DOUBLE_EQ(cached.ComputeFeature(tri, {i, j}),
                       uncached.ComputeFeature(tri, {i, j}));
      EXPECT_DOUBLE_EQ(strings.ComputeFeature(jac, {i, j}),
                       uncached.ComputeFeature(jac, {i, j}));
      EXPECT_DOUBLE_EQ(strings.ComputeFeature(tri, {i, j}),
                       uncached.ComputeFeature(tri, {i, j}));
    }
  }
  // Token lists are cached for the string kernels only; the id path
  // reads id columns built from the bytes.
  EXPECT_GT(strings.TokenCacheBytes(), 0u);
  EXPECT_EQ(cached.TokenCacheBytes(), 0u);
  EXPECT_GT(cached.IdCacheBytes(), 0u);
  EXPECT_EQ(uncached.TokenCacheBytes(), 0u);
}

TEST_F(PairContextTest, TfIdfUsesCorpusModel) {
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kTfIdf, "name", "name");
  PairContext ctx(a_, b_, catalog_);
  // Identical names should score ~1 regardless of the corpus.
  EXPECT_NEAR(ctx.ComputeFeature(f, {0, 0}), 1.0, 1e-9);
  // Different names score less.
  EXPECT_LT(ctx.ComputeFeature(f, {0, 2}), 0.9);
}

TEST_F(PairContextTest, ModelForIsCachedPerAttrPair) {
  PairContext ctx(a_, b_, catalog_);
  const TfIdfModel& m1 = ctx.ModelFor(0, 0);
  const TfIdfModel& m2 = ctx.ModelFor(0, 0);
  EXPECT_EQ(&m1, &m2);
  const TfIdfModel& cross = ctx.ModelFor(0, 1);
  EXPECT_NE(&m1, &cross);
  // Corpus = |A| + |B| documents.
  EXPECT_EQ(m1.document_count(), a_.num_rows() + b_.num_rows());
}

TEST_F(PairContextTest, ComputeCountTracksCalls) {
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kJaro, "name", "name");
  PairContext ctx(a_, b_, catalog_);
  EXPECT_EQ(ctx.compute_count(), 0u);
  ctx.ComputeFeature(f, {0, 0});
  ctx.ComputeFeature(f, {0, 0});
  EXPECT_EQ(ctx.compute_count(), 2u);
  ctx.ResetComputeCount();
  EXPECT_EQ(ctx.compute_count(), 0u);
}

TEST_F(PairContextTest, ClearTokenCaches) {
  const FeatureId f =
      *catalog_.InternByName(SimFunction::kJaccard, "name", "name");
  PairContext strings(a_, b_, catalog_,
                      PairContext::Options{.intern_tokens = false});
  strings.ComputeFeature(f, {0, 0});
  EXPECT_GT(strings.TokenCacheBytes(), 0u);
  strings.ClearTokenCaches();
  EXPECT_EQ(strings.TokenCacheBytes(), 0u);
  // Values still computable after the caches are dropped.
  EXPECT_GE(strings.ComputeFeature(f, {0, 0}), 0.0);

  PairContext ctx(a_, b_, catalog_);
  ctx.ComputeFeature(f, {0, 0});
  EXPECT_EQ(ctx.TokenCacheBytes(), 0u);
  EXPECT_GT(ctx.IdCacheBytes(), 0u);
  ctx.ClearTokenCaches();
  EXPECT_EQ(ctx.IdCacheBytes(), 0u);
  EXPECT_GE(ctx.ComputeFeature(f, {0, 0}), 0.0);
}

TEST_F(PairContextTest, RankSnapshotIsBilledOnce) {
  // Long random text gives a large q-gram vocabulary, so the lexicographic
  // rank snapshot is large next to everything else the context bills. It
  // must be billed once, as the interner's, not once per column build.
  Rng rng(41);
  auto random_text = [&rng] {
    const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ";
    std::string text;
    for (int i = 0; i < 600; ++i) {
      text.push_back(alphabet[rng.Uniform(alphabet.size())]);
    }
    return text;
  };
  const Schema schema({"w", "x", "y", "z"});
  Table a("A", schema);
  Table b("B", schema);
  for (int row = 0; row < 16; ++row) {
    (void)a.AppendRow(
        {random_text(), random_text(), random_text(), random_text()});
    (void)b.AppendRow(
        {random_text(), random_text(), random_text(), random_text()});
  }
  FeatureCatalog catalog(schema, schema);
  std::vector<FeatureId> features;
  for (AttrIndex attr = 0; attr < schema.size(); ++attr) {
    for (const SimFunction fn :
         {SimFunction::kTrigram, SimFunction::kJaccard, SimFunction::kCosine,
          SimFunction::kTfIdf}) {
      features.push_back(catalog.Intern(Feature{fn, attr, attr}));
    }
  }

  PairContext unbudgeted(a, b, catalog);
  unbudgeted.Prewarm(features);
  ASSERT_NE(unbudgeted.interner(), nullptr);
  const size_t reported = unbudgeted.TokenCacheBytes() +
                          unbudgeted.IdCacheBytes() +
                          unbudgeted.interner()->ArenaBytes() +
                          unbudgeted.interner()->DictionaryBytes();

  // What the context reports, plus two billing chunks of rounding.
  MemoryBudget budget(reported + 2 * 256 * 1024);
  PairContext ctx(a, b, catalog, PairContext::Options{.budget = &budget});
  ctx.Prewarm(features);
  EXPECT_EQ(ctx.budget_denials(), 0u);
  EXPECT_FALSE(ctx.id_path_degraded());
  EXPECT_FALSE(ctx.token_cache_degraded());
  EXPECT_LE(budget.used(), reported + 256 * 1024);
}

}  // namespace
}  // namespace emdbg
