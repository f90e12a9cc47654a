// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Serving-layer coverage: snapshot unification of the eager and mapped
// forms, catalog publish/acquire/remove lifecycle, the lock-free reader
// fast-path audit, version attribution, the fresh-label compiled-cache
// bypass, the RCU cell's retire/reclaim lifecycle, and the
// serving-catalog verifier.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "verify/verify.h"
#include "xmlsel/rcu.h"

namespace xmlsel {
namespace {

struct ServingFixture {
  std::shared_ptr<const Synopsis> synopsis;
  std::shared_ptr<const MappedSynopsis> image;
  NameTable names;  // copy of the synopsis table, for parsing
  std::vector<Query> queries;

  static ServingFixture Make(int64_t elements = 1500, int32_t kappa = 6) {
    Document doc = GenerateDataset(DatasetId::kDblp, elements, 3);
    SynopsisOptions options;
    options.kappa = kappa;
    auto synopsis =
        std::make_shared<const Synopsis>(Synopsis::Build(doc, options));
    auto image = MappedSynopsis::FromBuffer(BuildMappedImage(*synopsis));
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    ServingFixture f;
    f.synopsis = synopsis;
    f.image = std::shared_ptr<const MappedSynopsis>(std::move(image).value());
    f.names = synopsis->names();
    for (std::string_view text :
         {"//article", "//article/author", "//inproceedings[./title]",
          "//article//author", "/dblp/article/title"}) {
      Result<Query> q = ParseQuery(text, &f.names);
      EXPECT_TRUE(q.ok()) << text;
      f.queries.push_back(std::move(q).value());
    }
    return f;
  }
};

TEST(ServingSnapshotTest, EagerAndMappedFormsEstimateIdentically) {
  ServingFixture f = ServingFixture::Make();
  auto eager = ServingSnapshot::FromSynopsis(f.synopsis, 1);
  auto mapped = ServingSnapshot::FromMapped(f.image, 1);
  EXPECT_FALSE(eager->is_mapped());
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(eager->element_total(), mapped->element_total());
  EXPECT_EQ(eager->base_label_count(), mapped->base_label_count());

  std::span<const Query> span(f.queries);
  auto a = EstimateBatchOnSnapshot(*eager, span);
  auto b = EstimateBatchOnSnapshot(*mapped, span);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i].value().lower, b[i].value().lower);
    EXPECT_EQ(a[i].value().upper, b[i].value().upper);
  }
}

TEST(ServingSnapshotTest, StatsExposeResidencyAndCompileCounters) {
  ServingFixture f = ServingFixture::Make();
  auto mapped = ServingSnapshot::FromMapped(f.image, 7);
  SnapshotStats cold = mapped->Stats();
  EXPECT_EQ(cold.version, 7u);
  EXPECT_TRUE(cold.mapped);
  EXPECT_EQ(cold.residency.decoded_rules(), 0);
  EXPECT_EQ(cold.compile_cache_size, 0);
  EXPECT_GT(cold.residency.file_bytes, 0u);

  auto out = EstimateBatchOnSnapshot(*mapped, std::span<const Query>(f.queries));
  for (const auto& r : out) ASSERT_TRUE(r.ok());
  SnapshotStats warm = mapped->Stats();
  EXPECT_GT(warm.residency.decoded_rules(), 0);
  EXPECT_GT(warm.residency.resident_bytes(), 0);
  EXPECT_GT(warm.compile_cache_size, 0);
  // MappedSynopsis::Stats is the same public surface, layer by layer.
  MappedSynopsisStats ms = f.image->Stats();
  EXPECT_EQ(ms.decoded_rules(), warm.residency.decoded_rules());
  EXPECT_EQ(ms.lossless.decoded_rules + ms.lossy.decoded_rules,
            ms.decoded_rules());
}

TEST(ServingSnapshotTest, FreshLabelQueriesBypassTheSharedCompiledCache) {
  ServingFixture f = ServingFixture::Make();
  auto snap = ServingSnapshot::FromSynopsis(f.synopsis, 1);
  // A label the synopsis never saw: interned into the caller's scratch
  // copy, its id is >= base_label_count and caller-local.
  NameTable scratch = snap->base_names();
  Result<Query> fresh = ParseQuery("//zzz_not_in_corpus", &scratch);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(QueryWithinBaseLabels(*snap, fresh.value()));
  EXPECT_TRUE(QueryWithinBaseLabels(*snap, f.queries[0]));

  const int64_t shared_before = snap->query_cache().size();
  Result<SelectivityEstimate> est = EstimateOnSnapshot(*snap, fresh.value());
  ASSERT_TRUE(est.ok());
  // Nothing matches a nonexistent label, so the guaranteed lower bound is
  // 0; the upper bound may stay positive (unknown labels fall back to
  // conservative caps — lossy stars cannot rule them out).
  EXPECT_EQ(est.value().lower, 0);
  EXPECT_LE(est.value().lower, est.value().upper);
  // The shared table must not have interned a caller-local key.
  EXPECT_EQ(snap->query_cache().size(), shared_before);
}

TEST(ServingCatalogTest, PublishAcquireRemoveLifecycle) {
  ServingFixture f = ServingFixture::Make();
  ServingCatalog catalog(4);
  EXPECT_EQ(catalog.Acquire("docs"), nullptr);

  EXPECT_EQ(catalog.PublishSynopsis("docs", f.synopsis), 1u);
  EXPECT_EQ(catalog.PublishMapped("docs", f.image), 2u);
  auto snap = catalog.Acquire("docs");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 2u);
  EXPECT_TRUE(snap->is_mapped());

  EXPECT_EQ(catalog.Tenants(), std::vector<std::string>{"docs"});
  auto stats = catalog.TenantStats("docs");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().version, 2u);

  EXPECT_TRUE(catalog.Remove("docs"));
  EXPECT_FALSE(catalog.Remove("docs"));
  EXPECT_EQ(catalog.Acquire("docs"), nullptr);
  // The pinned snapshot survives removal: estimates still work on it.
  auto post = EstimateBatchOnSnapshot(*snap, std::span<const Query>(f.queries));
  for (const auto& r : post) EXPECT_TRUE(r.ok());

  CatalogStats cs = catalog.Stats();
  EXPECT_EQ(cs.tenants, 0);
  EXPECT_EQ(cs.publishes, 2);
  EXPECT_EQ(cs.reader_fast_path_locks, 0);
}

TEST(ServingCatalogTest, BatchOutcomeAttributesTheServedVersion) {
  ServingFixture f = ServingFixture::Make();
  ServingCatalog catalog(2);
  catalog.PublishSynopsis("t", f.synopsis);
  auto first = catalog.EstimateBatch("t", std::span<const Query>(f.queries));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().snapshot_version, 1u);

  catalog.PublishMapped("t", f.image);
  auto second = catalog.EstimateBatch("t", std::span<const Query>(f.queries));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().snapshot_version, 2u);
  // Both forms wrap the same synopsis bytes: identical results.
  for (size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_EQ(first.value().results[i].value().lower,
              second.value().results[i].value().lower);
    EXPECT_EQ(first.value().results[i].value().upper,
              second.value().results[i].value().upper);
  }
  EXPECT_FALSE(catalog.EstimateBatch("ghost", std::span<const Query>(f.queries))
                   .ok());
}

TEST(ServingCatalogTest, ReaderFastPathTakesZeroLocksAcrossManyAcquires) {
  ServingFixture f = ServingFixture::Make();
  ServingCatalog catalog;
  catalog.PublishSynopsis("a", f.synopsis);
  catalog.PublishMapped("b", f.image);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(catalog.Acquire("a"), nullptr);
    ASSERT_NE(catalog.Acquire("b"), nullptr);
    ASSERT_EQ(catalog.Acquire("missing"), nullptr);
  }
  CatalogStats cs = catalog.Stats();
  EXPECT_EQ(cs.reader_fast_path_locks, 0);
  EXPECT_EQ(cs.hits, 2000);
  EXPECT_EQ(cs.misses, 1000);
}

TEST(ServingCatalogTest, VerifierAuditsThePopulatedCatalog) {
  ServingFixture f = ServingFixture::Make();
  ServingCatalog catalog(3);
  EXPECT_TRUE(VerifyServingCatalog(catalog).ok());  // empty is fine
  catalog.PublishSynopsis("eager", f.synopsis);
  catalog.PublishMapped("mapped", f.image);
  Status audit = VerifyServingCatalog(catalog);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ServingCatalogTest, DecodeBudgetCapsResidencyAcrossTenants) {
  ServingFixture f = ServingFixture::Make();
  // Two more images of the same synopsis bytes: three tenants, three
  // independent decode caches competing for one catalog-wide budget.
  auto open = [&f]() {
    auto image = MappedSynopsis::FromBuffer(BuildMappedImage(*f.synopsis));
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    return std::shared_ptr<const MappedSynopsis>(std::move(image).value());
  };
  ServingCatalog catalog(2);
  catalog.PublishMapped("a", f.image);
  catalog.PublishMapped("b", open());
  catalog.PublishMapped("c", open());

  std::span<const Query> span(f.queries);
  Result<BatchOutcome> first_a = catalog.EstimateBatch("a", span);
  ASSERT_TRUE(first_a.ok());
  for (const char* t : {"b", "c"}) {
    Result<BatchOutcome> out = catalog.EstimateBatch(t, span);
    ASSERT_TRUE(out.ok());
    for (const auto& r : out.value().results) ASSERT_TRUE(r.ok());
  }
  CatalogStats warm = catalog.Stats();
  ASSERT_GT(warm.decode_resident_bytes, 0);
  EXPECT_GT(warm.decoded_rules, 0);
  EXPECT_EQ(warm.decode_budget_bytes, 0);  // unbounded by default
  EXPECT_EQ(warm.decode_evictions, 0);

  // Budget at half the warm residency: enforcement sheds largest images
  // first until the catalog-wide total fits.
  const int64_t budget = warm.decode_resident_bytes / 2;
  catalog.SetDecodeBudget(budget);
  EXPECT_EQ(catalog.decode_budget(), budget);
  EXPECT_GT(catalog.EnforceDecodeBudget(), 0);
  CatalogStats bounded = catalog.Stats();
  EXPECT_LE(bounded.decode_resident_bytes, budget);
  EXPECT_GT(bounded.decode_evictions, 0);
  EXPECT_EQ(bounded.decode_budget_bytes, budget);

  // Evicted slots re-decode on demand with identical results...
  Result<BatchOutcome> again_a = catalog.EstimateBatch("a", span);
  ASSERT_TRUE(again_a.ok());
  for (size_t i = 0; i < f.queries.size(); ++i) {
    ASSERT_TRUE(again_a.value().results[i].ok());
    EXPECT_EQ(first_a.value().results[i].value().lower,
              again_a.value().results[i].value().lower);
    EXPECT_EQ(first_a.value().results[i].value().upper,
              again_a.value().results[i].value().upper);
  }
  // ...and the next publish re-enforces the budget automatically.
  catalog.PublishMapped("a", f.image);
  EXPECT_LE(catalog.Stats().decode_resident_bytes, budget);
  catalog.ReclaimEvictedRules();
  Status audit = VerifyServingCatalog(catalog);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(RcuCellTest, PublishRetireReclaimLifecycle) {
  RcuCell<int> cell;
  EXPECT_FALSE(cell.Read());
  cell.Publish(std::make_shared<const int>(1));
  {
    RcuCell<int>::Ref ref = cell.Read();
    ASSERT_TRUE(ref);
    EXPECT_EQ(*ref, 1);
    std::shared_ptr<const int> pinned = ref.Pin();
    // Swap while a reader is inside its critical section: the superseded
    // version must survive at least until the guard ends.
    cell.Publish(std::make_shared<const int>(2));
    EXPECT_EQ(*ref, 1);  // the guard's view is immutable
    EXPECT_GE(cell.retired_pending(), 1);
    EXPECT_EQ(*pinned, 1);
  }
  // Reader gone: the writer's next housekeeping pass reclaims.
  cell.Reclaim();
  EXPECT_EQ(cell.retired_pending(), 0);
  EXPECT_EQ(*cell.Read(), 2);
  EXPECT_EQ(cell.published(), 2);

  // A pin outlives both the swap and the cell's own retired list.
  std::shared_ptr<const int> survivor = cell.Read().Pin();
  cell.Publish(std::make_shared<const int>(3));
  cell.Publish(nullptr);
  cell.Reclaim();
  EXPECT_EQ(*survivor, 2);
  EXPECT_FALSE(cell.Read());
}

}  // namespace
}  // namespace xmlsel
