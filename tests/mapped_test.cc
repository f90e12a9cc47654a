// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Tests for the mmap-able synopsis image (storage/mapped.h) served through
// a mapped ServingSnapshot. The central property: serving out of the
// packed image — rules decoded lazily on first touch — is *bit-identical*
// to the eager path, down to the kernel's own counters, across datasets,
// κ values, query shapes, and cold/warm decode caches. Plus the laziness
// claims themselves: the lossless layer stays cold, and decoded rules
// stay below the image's total.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "estimator/serving.h"
#include "estimator/synopsis.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "verify/verify.h"
#include "workload/query_gen.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {
namespace {

Synopsis BuildSynopsis(DatasetId id, int64_t elements, int32_t kappa) {
  Document doc = GenerateDataset(id, elements, 17);
  SynopsisOptions options;
  options.kappa = kappa;
  return Synopsis::Build(doc, options);
}

std::shared_ptr<const MappedSynopsis> OpenImage(const Synopsis& s) {
  MappedOpenOptions options;
  options.verify_checksum = true;
  Result<std::unique_ptr<MappedSynopsis>> image =
      MappedSynopsis::FromBuffer(BuildMappedImage(s), options);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::shared_ptr<const MappedSynopsis>(std::move(image).value());
}

std::shared_ptr<const ServingSnapshot> ServeImage(const Synopsis& s) {
  return ServingSnapshot::FromMapped(OpenImage(s), 1);
}

/// Parses `xpath` against a copy of the snapshot's names and estimates it.
Result<SelectivityEstimate> EstimateXPath(const ServingSnapshot& snapshot,
                                          std::string_view xpath) {
  NameTable names = snapshot.base_names();
  std::string_view one[] = {xpath};
  return EstimateStringsOnSnapshot(snapshot, one, &names)[0];
}

MappedCacheStats LossyStats(const ServingSnapshot& snapshot) {
  return snapshot.mapped_image()->lossy_layer().cache_stats();
}

std::vector<Query> Workload(const Synopsis& s, int32_t count) {
  Document doc = s.lossless().Expand(s.names());
  WorkloadOptions wopts;
  wopts.count = count;
  wopts.min_nodes = 2;
  wopts.max_nodes = 4;
  wopts.wildcard_prob = 0.15;
  wopts.seed = 23;
  return GenerateWorkload(doc, wopts);
}

// --- The bit-identity property -------------------------------------------

TEST(MappedPropertyTest, EagerAndMappedEstimatesAreIdentical) {
  const DatasetId kDatasets[] = {DatasetId::kXmark, DatasetId::kDblp,
                                 DatasetId::kCatalog};
  for (DatasetId id : kDatasets) {
    for (int32_t kappa : {0, 4, 16}) {
      Synopsis synopsis = BuildSynopsis(id, 900, kappa);
      SelectivityEstimator eager(synopsis);
      std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
      std::vector<Query> queries = Workload(synopsis, 16);
      // Two passes: pass 0 runs against a cold decode cache, pass 1
      // against a warm one — results must not depend on cache state.
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          Result<SelectivityEstimate> a = eager.EstimateQuery(queries[qi]);
          Result<SelectivityEstimate> b =
              EstimateOnSnapshot(*mapped, queries[qi]);
          ASSERT_EQ(a.ok(), b.ok())
              << "dataset " << static_cast<int>(id) << " kappa " << kappa
              << " query " << qi << " pass " << pass;
          if (!a.ok()) continue;
          EXPECT_EQ(a.value().lower, b.value().lower)
              << "dataset " << static_cast<int>(id) << " kappa " << kappa
              << " query " << qi << " pass " << pass;
          EXPECT_EQ(a.value().upper, b.value().upper)
              << "dataset " << static_cast<int>(id) << " kappa " << kappa
              << " query " << qi << " pass " << pass;
        }
      }
      // The serving layer never touched the lossless rules.
      EXPECT_EQ(
          mapped->mapped_image()->lossless_layer().cache_stats().decoded_rules,
          0);
    }
  }
}

TEST(MappedPropertyTest, KernelCounterTracesAreIdentical) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kXmark, 1200, 8);
  std::shared_ptr<const MappedSynopsis> image = OpenImage(synopsis);
  std::vector<Query> queries = Workload(synopsis, 12);
  const SynopsisEvalCache& cache = synopsis.eval_cache();
  CompiledQueryCache compile_cache;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        compile_cache.Prepare(queries[qi]);
    if (!prepared.ok() || prepared.value()->unsatisfiable) continue;
    for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
      const CompiledQuery& cq = mode == BoundMode::kLower
                                    ? prepared.value()->lower
                                    : UpperQueryOf(*prepared.value());
      GrammarEvaluator eager(&cache, &cq, &synopsis.label_maps(), mode);
      GrammarEvaluator lazy(&image->serving_provider(), &cq,
                            &image->label_maps(), mode);
      // Cold mapped cache on the first query, warm later — the trace must
      // be independent of that.
      GrammarEvalResult a = eager.Evaluate();
      GrammarEvalResult b = lazy.Evaluate();
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok()) << b.status.ToString();
      EXPECT_EQ(a.accepted, b.accepted) << "query " << qi;
      EXPECT_EQ(a.count, b.count) << "query " << qi;
      EXPECT_EQ(a.sigma_entries, b.sigma_entries) << "query " << qi;
      EXPECT_EQ(a.distinct_states, b.distinct_states) << "query " << qi;
      EXPECT_EQ(a.memo_probes, b.memo_probes) << "query " << qi;
      EXPECT_EQ(a.memo_hits, b.memo_hits) << "query " << qi;
      EXPECT_EQ(a.intern_probes, b.intern_probes) << "query " << qi;
      EXPECT_EQ(a.intern_hits, b.intern_hits) << "query " << qi;
      EXPECT_EQ(a.pool_pairs, b.pool_pairs) << "query " << qi;
      EXPECT_EQ(a.arena_bytes, b.arena_bytes) << "query " << qi;
    }
  }
}

TEST(MappedPropertyTest, BatchMatchesSequentialAndThreadCounts) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kDblp, 1000, 6);
  std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
  SelectivityEstimator eager(synopsis);
  std::vector<std::string_view> xpaths = {
      "//article//author", "/dblp/article", "//author", "//*",
      "//article[.//author]//title", "//nosuchlabel", "not a query ((",
  };
  NameTable names = mapped->base_names();
  ThreadPool pool(4);
  std::vector<Result<SelectivityEstimate>> seq =
      EstimateStringsOnSnapshot(*mapped, xpaths, &names, 1);
  std::vector<Result<SelectivityEstimate>> par =
      EstimateStringsOnSnapshot(*mapped, xpaths, &names, 4, &pool);
  std::vector<Result<SelectivityEstimate>> ref =
      eager.EstimateBatch(std::span<const std::string_view>(xpaths), 1);
  ASSERT_EQ(seq.size(), xpaths.size());
  ASSERT_EQ(par.size(), xpaths.size());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    ASSERT_EQ(seq[i].ok(), par[i].ok()) << xpaths[i];
    ASSERT_EQ(seq[i].ok(), ref[i].ok()) << xpaths[i];
    if (!seq[i].ok()) {
      EXPECT_EQ(seq[i].status().code(), par[i].status().code());
      continue;
    }
    EXPECT_EQ(seq[i].value().lower, par[i].value().lower) << xpaths[i];
    EXPECT_EQ(seq[i].value().upper, par[i].value().upper) << xpaths[i];
    EXPECT_EQ(seq[i].value().lower, ref[i].value().lower) << xpaths[i];
    EXPECT_EQ(seq[i].value().upper, ref[i].value().upper) << xpaths[i];
  }
}

// --- Laziness ------------------------------------------------------------

TEST(MappedTest, LosslessLayerStaysColdAndDecodesStayLazy) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kXmark, 1500, 12);
  std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
  ASSERT_TRUE(EstimateXPath(*mapped, "//listitem//keyword").ok());
  MappedCacheStats lossy = LossyStats(*mapped);
  MappedCacheStats lossless =
      mapped->mapped_image()->lossless_layer().cache_stats();
  EXPECT_EQ(lossless.decoded_rules, 0);
  EXPECT_EQ(lossless.misses, 0);
  EXPECT_GT(lossy.decoded_rules, 0);
  // Laziness across the whole image: the large lossless layer never
  // decodes, so total decoded rules stay strictly below the image total.
  int64_t decoded = lossy.decoded_rules + lossless.decoded_rules;
  int64_t total = lossy.total_rules + lossless.total_rules;
  EXPECT_LT(decoded, total);
  EXPECT_GT(lossy.resident_bytes, 0);
  // A repeat query is served from the cache: decode count is unchanged.
  ASSERT_TRUE(EstimateXPath(*mapped, "//listitem//keyword").ok());
  EXPECT_EQ(LossyStats(*mapped).decoded_rules, lossy.decoded_rules);
  EXPECT_GT(LossyStats(*mapped).hits, lossy.hits);
}

TEST(MappedTest, UnsatisfiableQueriesDecodeNothing) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kCatalog, 800, 5);
  std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
  // The parent of a document element is the virtual root, which only the
  // wildcard test matches — the rewrite proves this shape empty, so no
  // bound evaluation (and hence no rule decode) ever runs.
  Result<SelectivityEstimate> r =
      EstimateXPath(*mapped, "/catalog/parent::item");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().lower, 0);
  EXPECT_EQ(r.value().upper, 0);
  EXPECT_EQ(LossyStats(*mapped).decoded_rules, 0);
}

// --- Residency accounting & eviction -------------------------------------

TEST(MappedTest, ResidentBytesAccountingIsExact) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kDblp, 1000, 6);
  std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
  ASSERT_TRUE(EstimateXPath(*mapped, "//article//author").ok());
  MappedCacheStats lossy = LossyStats(*mapped);
  EXPECT_GT(lossy.decoded_rules, 0);
  EXPECT_GT(lossy.resident_bytes, 0);
  // The audit recounts every decoded slot's exact footprint —
  // sizeof(MappedDecodedRule) + the flat form's capacity-based HeapBytes —
  // and cross-checks both counters. Any drift (a slot whose vectors grew
  // after install, a missed charge) fails here.
  Status audit = mapped->mapped_image()->lossy_layer().AuditDecodeCache();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  audit = mapped->mapped_image()->lossless_layer().AuditDecodeCache();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(MappedTest, FirstQueryDecodesOnlyReachableRules) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kXmark, 1500, 12);
  std::shared_ptr<const ServingSnapshot> mapped = ServeImage(synopsis);
  const MappedSynopsis::Layer& lossy = mapped->mapped_image()->lossy_layer();
  const int32_t reachable = lossy.ReachableRuleCount();
  ASSERT_GT(reachable, 0);
  ASSERT_LE(reachable, lossy.rule_count());
  // The first satisfiable query walks the whole call graph below the
  // start rule — and nothing else. Rules the directory stores but the
  // start rule cannot reach must never decode, however wholesale the
  // first query is.
  ASSERT_TRUE(EstimateXPath(*mapped, "//*").ok());
  EXPECT_EQ(LossyStats(*mapped).decoded_rules, reachable);
  // Further queries stay within the reachable set by construction.
  ASSERT_TRUE(EstimateXPath(*mapped, "//listitem//keyword").ok());
  EXPECT_EQ(LossyStats(*mapped).decoded_rules, reachable);
}

TEST(MappedTest, BudgetEvictionRedecodesBitIdentically) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kXmark, 1200, 8);
  std::shared_ptr<const MappedSynopsis> image = OpenImage(synopsis);
  std::shared_ptr<const ServingSnapshot> mapped =
      ServingSnapshot::FromMapped(image, 1);
  std::vector<Query> queries = Workload(synopsis, 12);
  std::span<const Query> span(queries);
  std::vector<Result<SelectivityEstimate>> warm_run =
      EstimateBatchOnSnapshot(*mapped, span);
  MappedSynopsisStats warm = image->Stats();
  ASSERT_GT(warm.resident_bytes(), 0);

  // Partial eviction: enforce half the warm residency. CLOCK needs one
  // revolution to strip the just-used ref bits and a second to evict, so
  // a single call suffices from quiescence.
  const int64_t half = warm.resident_bytes() / 2;
  int64_t evicted = image->EnforceDecodeBudget(half);
  EXPECT_GT(evicted, 0);
  EXPECT_LE(image->Stats().resident_bytes(), half);
  EXPECT_EQ(image->lossy_layer().cache_stats().evictions, evicted);
  Status audit = image->lossy_layer().AuditDecodeCache();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Full eviction drains the cache entirely; with no readers announced
  // the grace period has already passed, so reclamation leaves nothing
  // pending.
  image->EnforceDecodeBudget(0);
  EXPECT_EQ(image->Stats().decoded_rules(), 0);
  EXPECT_EQ(image->Stats().resident_bytes(), 0);
  image->ReclaimEvictedRules();

  // Re-decoding evicted slots reproduces the exact same estimates.
  std::vector<Result<SelectivityEstimate>> again =
      EstimateBatchOnSnapshot(*mapped, span);
  ASSERT_EQ(again.size(), warm_run.size());
  for (size_t i = 0; i < warm_run.size(); ++i) {
    ASSERT_EQ(warm_run[i].ok(), again[i].ok()) << "query " << i;
    if (!warm_run[i].ok()) continue;
    EXPECT_EQ(warm_run[i].value().lower, again[i].value().lower)
        << "query " << i;
    EXPECT_EQ(warm_run[i].value().upper, again[i].value().upper)
        << "query " << i;
  }
  audit = image->lossy_layer().AuditDecodeCache();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// --- Round trips ---------------------------------------------------------

TEST(MappedTest, FileRoundTripThroughPackAndOpen) {
  Synopsis synopsis = BuildSynopsis(DatasetId::kSwissProt, 700, 7);
  std::string path = ::testing::TempDir() + "mapped_roundtrip.synopsis";
  ASSERT_TRUE(PackSynopsisToFile(synopsis, path).ok());
  MappedOpenOptions options;
  options.verify_checksum = true;
  Result<std::unique_ptr<MappedSynopsis>> mapped =
      MappedSynopsis::Open(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(VerifyMappedImage(*mapped.value()).ok());
  Result<Synopsis> thawed = mapped.value()->Thaw();
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
  EXPECT_TRUE(CompareGrammars(thawed.value().lossy(), synopsis.lossy()).ok());
  EXPECT_TRUE(
      CompareGrammars(thawed.value().lossless(), synopsis.lossless()).ok());
  std::remove(path.c_str());
}

TEST(MappedTest, RoundTripVerifierPassesAcrossKappas) {
  for (int32_t kappa : {0, 1, 9, 1 << 20}) {
    Synopsis synopsis = BuildSynopsis(DatasetId::kPsd, 600, kappa);
    Status st = VerifyMappedRoundTrip(synopsis);
    EXPECT_TRUE(st.ok()) << "kappa " << kappa << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace xmlsel
