// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Thread-safety coverage for the concurrent batch-estimation engine:
// the same mixed workload evaluated on 1 and 8 threads must produce
// byte-identical {lower, upper} ranges, the guaranteed-bounds contract
// (lower ≤ exact ≤ upper) must hold under concurrency, and concurrent
// evaluators sharing one SynopsisEvalCache must agree. Run under
// ThreadSanitizer via tools/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "verify/verify.h"
#include "workload/query_gen.h"
#include "workload/runner.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {
namespace {

struct ConcurrencyFixture {
  Document doc;
  SelectivityEstimator estimator;
  std::vector<Query> queries;

  static ConcurrencyFixture Make(int32_t kappa, double order_axis_prob) {
    Document doc = GenerateDataset(DatasetId::kXmark, 4000, 23);
    SynopsisOptions sopts;
    sopts.kappa = kappa;
    SelectivityEstimator est = SelectivityEstimator::Build(doc, sopts);
    WorkloadOptions wopts;
    wopts.count = 48;
    wopts.order_axis_prob = order_axis_prob;
    wopts.wildcard_prob = 0.1;
    wopts.seed = 11;
    std::vector<Query> queries = GenerateWorkload(doc, wopts);
    return {std::move(doc), std::move(est), std::move(queries)};
  }
};

TEST(ConcurrencyTest, BatchResultsAreIdenticalAcrossThreadCounts) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/15,
                                                  /*order_axis_prob=*/0.25);
  std::span<const Query> span(f.queries);
  std::vector<Result<SelectivityEstimate>> one =
      f.estimator.EstimateBatch(span, 1);
  std::vector<Result<SelectivityEstimate>> eight =
      f.estimator.EstimateBatch(span, 8);
  ASSERT_EQ(one.size(), f.queries.size());
  ASSERT_EQ(eight.size(), f.queries.size());
  for (size_t i = 0; i < one.size(); ++i) {
    ASSERT_TRUE(one[i].ok());
    ASSERT_TRUE(eight[i].ok());
    EXPECT_EQ(one[i].value().lower, eight[i].value().lower)
        << f.queries[i].ToString(f.doc.names());
    EXPECT_EQ(one[i].value().upper, eight[i].value().upper)
        << f.queries[i].ToString(f.doc.names());
  }
}

TEST(ConcurrencyTest, BatchMatchesSequentialEstimateQuery) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/10,
                                                  /*order_axis_prob=*/0.2);
  std::vector<Result<SelectivityEstimate>> batch =
      f.estimator.EstimateBatch(std::span<const Query>(f.queries), 8);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    Result<SelectivityEstimate> seq = f.estimator.EstimateQuery(f.queries[i]);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(batch[i].ok());
    EXPECT_EQ(seq.value().lower, batch[i].value().lower);
    EXPECT_EQ(seq.value().upper, batch[i].value().upper);
  }
}

TEST(ConcurrencyTest, BoundsBracketExactUnderConcurrency) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/25,
                                                  /*order_axis_prob=*/0.25);
  ExactEvaluator oracle(f.doc);
  std::vector<Result<SelectivityEstimate>> batch =
      f.estimator.EstimateBatch(std::span<const Query>(f.queries), 8);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    int64_t exact = oracle.Count(f.queries[i]);
    EXPECT_LE(batch[i].value().lower, exact)
        << f.queries[i].ToString(f.doc.names());
    EXPECT_GE(batch[i].value().upper, exact)
        << f.queries[i].ToString(f.doc.names());
  }
}

TEST(ConcurrencyTest, RepeatedBatchesReuseThePoolDeterministically) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/15,
                                                  /*order_axis_prob=*/0.0);
  std::span<const Query> span(f.queries);
  std::vector<Result<SelectivityEstimate>> first =
      f.estimator.EstimateBatch(span, 4);
  for (int round = 0; round < 3; ++round) {
    std::vector<Result<SelectivityEstimate>> again =
        f.estimator.EstimateBatch(span, 4);
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].value().lower, again[i].value().lower);
      EXPECT_EQ(first[i].value().upper, again[i].value().upper);
    }
  }
}

TEST(ConcurrencyTest, StringBatchReportsPerQueryStatus) {
  Document doc = GenerateDataset(DatasetId::kDblp, 1200, 3);
  SynopsisOptions sopts;
  sopts.kappa = 0;
  SelectivityEstimator est = SelectivityEstimator::Build(doc, sopts);
  std::vector<std::string_view> xpaths = {
      "//article//author",
      "not a query ((",
      "//inproceedings[./title]",
  };
  std::vector<Result<SelectivityEstimate>> out =
      est.EstimateBatch(std::span<const std::string_view>(xpaths), 8);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_TRUE(out[2].ok());
  // The failed slot carries the parse error; the neighbours match the
  // sequential API.
  Result<SelectivityEstimate> seq = est.Estimate("//article//author");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value().lower, out[0].value().lower);
  EXPECT_EQ(seq.value().upper, out[0].value().upper);
}

// Raw sharing stress: many threads race GrammarEvaluators over the same
// synopsis and the same (lazily built) eval cache. This is the test that
// must stay TSan-clean: everything shared is read-only, everything
// mutable is per-evaluator.
TEST(ConcurrencyTest, SharedCacheEvaluatorsRaceCleanly) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/20,
                                                  /*order_axis_prob=*/0.0);
  const Synopsis& synopsis = f.estimator.synopsis();
  // Compile a handful of queries up front (compilation is not part of
  // the shared surface).
  std::vector<CompiledQuery> compiled;
  for (size_t i = 0; i < 6 && i < f.queries.size(); ++i) {
    Result<RewriteOutcome> rw = RewriteReverseAxes(f.queries[i]);
    ASSERT_TRUE(rw.ok());
    Result<CompiledQuery> cq = CompiledQuery::Compile(rw.value().query);
    ASSERT_TRUE(cq.ok());
    compiled.push_back(std::move(cq).value());
  }
  // First touch of eval_cache() happens concurrently on purpose: the
  // lazy build must be race-free too. Besides the counts, each thread
  // records the kernel counters of every evaluation: evaluators are
  // deterministic and fully thread-private (registry, σ-memo, arena), so
  // every thread must observe the *same* counter trace — any cross-thread
  // leakage of pooled state would skew probes/pool sizes apart.
  std::vector<std::vector<int64_t>> per_thread(8);
  std::vector<int64_t> warm_allocs(8, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const SynopsisEvalCache* cache = &synopsis.eval_cache();
      std::vector<int64_t>& trace = per_thread[static_cast<size_t>(t)];
      auto record = [&trace](const GrammarEvalResult& r) {
        trace.push_back(r.count);
        trace.push_back(r.sigma_entries);
        trace.push_back(r.distinct_states);
        trace.push_back(r.memo_probes);
        trace.push_back(r.memo_hits);
        trace.push_back(r.intern_probes);
        trace.push_back(r.intern_hits);
        trace.push_back(r.pool_pairs);
        trace.push_back(r.arena_bytes);
      };
      for (const CompiledQuery& cq : compiled) {
        GrammarEvaluator lower(cache, &cq, &synopsis.label_maps(),
                               BoundMode::kLower);
        GrammarEvaluator upper(cache, &cq, &synopsis.label_maps(),
                               BoundMode::kUpper);
        record(lower.Evaluate());
        record(upper.Evaluate());
        // Warm re-run on this thread's own evaluator: the steady-state
        // path allocates nothing, on every thread.
        GrammarEvalResult warm = lower.Evaluate();
        trace.push_back(warm.count);
        warm_allocs[static_cast<size_t>(t)] += warm.heap_allocs;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(per_thread[0], per_thread[static_cast<size_t>(t)]);
  }
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(warm_allocs[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(ConcurrencyTest, CompiledQueryCacheHammeredFromEightThreads) {
  ConcurrencyFixture f = ConcurrencyFixture::Make(/*kappa=*/20,
                                                  /*order_axis_prob=*/0.2);
  const Synopsis& synopsis = f.estimator.synopsis();
  CompiledQueryCache& cache = synopsis.query_cache();
  const size_t kShapes = std::min<size_t>(12, f.queries.size());
  // Single-thread reference: prepare every shape once, cold.
  std::vector<std::shared_ptr<const PreparedQuery>> reference;
  CompiledQueryCache cold;
  for (size_t i = 0; i < kShapes; ++i) {
    Result<std::shared_ptr<const PreparedQuery>> pq =
        cold.Prepare(f.queries[i]);
    ASSERT_TRUE(pq.ok());
    reference.push_back(pq.value());
  }
  // Hammer the shared cache: 8 threads × many rounds over the same
  // shapes, all hitting Prepare concurrently. Every handle must carry a
  // compilation identical to the cold reference, and evaluating through
  // it must match the reference evaluation exactly.
  std::vector<std::vector<int64_t>> per_thread(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int64_t>& trace = per_thread[static_cast<size_t>(t)];
      for (int round = 0; round < 6; ++round) {
        for (size_t i = 0; i < kShapes; ++i) {
          Result<std::shared_ptr<const PreparedQuery>> pq =
              cache.Prepare(f.queries[i]);
          ASSERT_TRUE(pq.ok());
          const PreparedQuery& got = *pq.value();
          const PreparedQuery& want = *reference[i];
          ASSERT_EQ(got.unsatisfiable, want.unsatisfiable);
          ASSERT_EQ(got.shared_upper, want.shared_upper);
          ASSERT_EQ(got.match_test, want.match_test);
          if (got.unsatisfiable) continue;
          GrammarEvaluator eval(&synopsis.eval_cache(), &got.lower,
                                &synopsis.label_maps(), BoundMode::kLower);
          trace.push_back(eval.Evaluate().count);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(per_thread[0], per_thread[static_cast<size_t>(t)]);
  }
  // Whatever the interleaving: one interned entry per distinct shape,
  // every satisfiable Prepare counted as a hit or a miss, and at most 8
  // racing first-touch compiles per distinct shape.
  int64_t satisfiable = 0;
  for (const auto& pq : reference) {
    if (!pq->unsatisfiable) ++satisfiable;
  }
  const int64_t distinct = cold.size();
  EXPECT_EQ(cache.size(), distinct);
  EXPECT_EQ(cache.hits() + cache.misses(), 8 * 6 * satisfiable);
  EXPECT_LE(cache.misses(), 8 * distinct);
  EXPECT_GE(cache.misses(), distinct);
  // Reference check against the sequential estimator path too: a cached
  // handle estimates exactly what a fresh estimator computes.
  std::vector<Result<SelectivityEstimate>> cached_run = f.estimator.EstimateBatch(
      std::span<const Query>(f.queries.data(), kShapes), 1);
  SelectivityEstimator fresh(synopsis);
  std::vector<Result<SelectivityEstimate>> fresh_run = fresh.EstimateBatch(
      std::span<const Query>(f.queries.data(), kShapes), 1);
  for (size_t i = 0; i < kShapes; ++i) {
    ASSERT_EQ(cached_run[i].ok(), fresh_run[i].ok());
    if (!cached_run[i].ok()) continue;
    EXPECT_EQ(cached_run[i].value().lower, fresh_run[i].value().lower);
    EXPECT_EQ(cached_run[i].value().upper, fresh_run[i].value().upper);
  }
}

TEST(ConcurrencyTest, ThreadPoolDrainsAndReuses) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 100);
  }
}

TEST(ConcurrencyTest, UpdateInvalidatesEvalCache) {
  // Updates require exclusive access; after one, estimates must reflect
  // the new grammar (i.e. the hoisted cache must not serve stale data).
  Document doc = GenerateDataset(DatasetId::kCatalog, 1000, 5);
  SynopsisOptions sopts;
  sopts.kappa = 0;
  SelectivityEstimator est = SelectivityEstimator::Build(doc, sopts);

  std::vector<std::string_view> probe = {"//item"};
  std::vector<Result<SelectivityEstimate>> before =
      est.EstimateBatch(std::span<const std::string_view>(probe), 2);
  ASSERT_TRUE(before[0].ok());

  // Re-deriving the lossy layer with a large kappa changes the grammar
  // under the cache; a stale cache would reference freed rules.
  est.mutable_synopsis().RecomputeLossy(1 << 20);
  std::vector<Result<SelectivityEstimate>> after =
      est.EstimateBatch(std::span<const std::string_view>(probe), 2);
  ASSERT_TRUE(after[0].ok());
  EXPECT_LE(after[0].value().lower, before[0].value().lower);
  EXPECT_GE(after[0].value().upper, before[0].value().upper);
}

// Two published versions of one tenant that provably estimate
// differently (the second re-derives the lossy layer with a huge kappa,
// widening bounds), plus queries parsed against their common label ids
// and the exact per-version reference results.
struct SwapFixture {
  std::shared_ptr<const Synopsis> version_a;  // kappa = 0 (exact)
  std::shared_ptr<const Synopsis> version_b;  // kappa = 1 << 20 (very lossy)
  std::vector<Query> queries;
  std::vector<SelectivityEstimate> expect_a;
  std::vector<SelectivityEstimate> expect_b;

  static SwapFixture Make() {
    Document doc = GenerateDataset(DatasetId::kDblp, 1200, 3);
    SynopsisOptions options;
    options.kappa = 0;
    auto a = std::make_shared<Synopsis>(Synopsis::Build(doc, options));
    // The copy shares label ids with the original (NameTable copies
    // preserve ids), so queries key both versions identically.
    auto b = std::make_shared<Synopsis>(*a);
    b->RecomputeLossy(1 << 20);

    SwapFixture f;
    f.version_a = a;
    f.version_b = b;
    NameTable names = a->names();
    for (std::string_view text :
         {"//article", "//article/author", "//inproceedings[./title]",
          "/dblp/article/title"}) {
      Result<Query> q = ParseQuery(text, &names);
      EXPECT_TRUE(q.ok()) << text;
      f.queries.push_back(std::move(q).value());
    }
    auto reference = [&f](const std::shared_ptr<const Synopsis>& s) {
      auto snap = ServingSnapshot::FromSynopsis(s, 1);
      std::vector<SelectivityEstimate> out;
      for (const auto& r :
           EstimateBatchOnSnapshot(*snap, std::span<const Query>(f.queries))) {
        EXPECT_TRUE(r.ok());
        out.push_back(r.value());
      }
      return out;
    };
    f.expect_a = reference(f.version_a);
    f.expect_b = reference(f.version_b);
    // The torture tests are vacuous unless the versions disagree.
    bool differs = false;
    for (size_t i = 0; i < f.expect_a.size(); ++i) {
      if (f.expect_a[i].lower != f.expect_b[i].lower ||
          f.expect_a[i].upper != f.expect_b[i].upper) {
        differs = true;
      }
    }
    EXPECT_TRUE(differs);
    return f;
  }

  /// True when `results` is bit-identical to one published version's
  /// reference — the no-mixing contract for a batch that raced a swap.
  bool MatchesOneVersion(
      const std::vector<Result<SelectivityEstimate>>& results) const {
    auto matches = [&](const std::vector<SelectivityEstimate>& want) {
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) return false;
        if (results[i].value().lower != want[i].lower ||
            results[i].value().upper != want[i].upper) {
          return false;
        }
      }
      return true;
    };
    return matches(expect_a) || matches(expect_b);
  }
};

// The tentpole hammer (run under TSan via tools/check.sh): 8 readers
// racing EstimateBatch against 2 writers swapping the tenant's snapshot
// 100 times. Every batch must come out bit-identical to ONE published
// version — a reader that pinned version N mid-swap keeps N's synopsis,
// eval cache, and compiled-query cache to the last query of its batch,
// never a mix of N and N+1.
TEST(ConcurrencyTest, ServingCatalogHammerEightReadersTwoWritersHundredSwaps) {
  SwapFixture f = SwapFixture::Make();
  ServingCatalog catalog;
  catalog.PublishSynopsis("t", f.version_a);

  constexpr int kReaders = 8;
  constexpr int kWriters = 2;
  constexpr int kSwapsPerWriter = 50;  // 100 total
  std::atomic<int> writers_done{0};
  std::atomic<int64_t> batches{0};
  std::atomic<bool> all_consistent{true};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kSwapsPerWriter; ++i) {
        catalog.PublishSynopsis("t",
                                (i + w) % 2 == 0 ? f.version_b : f.version_a);
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      int rounds = 0;
      while (writers_done.load() < kWriters || rounds < 3) {
        auto outcome =
            catalog.EstimateBatch("t", std::span<const Query>(f.queries));
        if (!outcome.ok() || !f.MatchesOneVersion(outcome.value().results)) {
          all_consistent.store(false);
          break;
        }
        batches.fetch_add(1);
        ++rounds;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_TRUE(all_consistent.load());
  EXPECT_GE(batches.load(), kReaders * 3);
  CatalogStats cs = catalog.Stats();
  EXPECT_EQ(cs.publishes, kWriters * kSwapsPerWriter + 1);
  EXPECT_EQ(cs.reader_fast_path_locks, 0);
  Status audit = VerifyServingCatalog(catalog);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  // With all readers quiescent, one housekeeping publish reclaims every
  // version the swaps retired — including the one it retires itself (no
  // announcement holds the epoch back anymore).
  catalog.PublishSynopsis("t", f.version_a);
  EXPECT_EQ(catalog.Stats().shards[catalog.ShardIndex("t")].retired_pending,
            0);
}

// Satellite (c): a reader pins a snapshot and holds compiled-query-cache
// handles across a swap — deliberately, via shared_ptr — then the tenant
// is removed outright. Both the pinned snapshot and the handles must
// keep working and keep producing the pinned version's exact results.
TEST(ConcurrencyTest, PinnedSnapshotAndCompiledHandlesOutliveSwapAndRemoval) {
  SwapFixture f = SwapFixture::Make();
  ServingCatalog catalog(2);
  catalog.PublishSynopsis("t", f.version_a);

  std::shared_ptr<const ServingSnapshot> pinned = catalog.Acquire("t");
  ASSERT_NE(pinned, nullptr);
  std::vector<std::shared_ptr<const PreparedQuery>> handles;
  for (const Query& q : f.queries) {
    auto pq = pinned->query_cache().Prepare(q);
    ASSERT_TRUE(pq.ok());
    handles.push_back(pq.value());
  }

  for (int i = 0; i < 10; ++i) {
    catalog.PublishSynopsis("t", i % 2 == 0 ? f.version_b : f.version_a);
  }
  ASSERT_TRUE(catalog.Remove("t"));
  EXPECT_EQ(catalog.Acquire("t"), nullptr);

  // The pinned snapshot still serves version 1 exactly.
  EXPECT_EQ(pinned->version(), 1u);
  auto results =
      EstimateBatchOnSnapshot(*pinned, std::span<const Query>(f.queries));
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value().lower, f.expect_a[i].lower);
    EXPECT_EQ(results[i].value().upper, f.expect_a[i].upper);
  }
  // And the old handles still drive evaluators directly.
  for (size_t i = 0; i < handles.size(); ++i) {
    if (handles[i]->unsatisfiable) continue;
    GrammarEvaluator eval(&f.version_a->eval_cache(), &handles[i]->lower,
                          &f.version_a->label_maps(), BoundMode::kLower);
    EXPECT_EQ(eval.Evaluate().count, f.expect_a[i].lower);
  }
}

// The string path `xmlsel_tool serve` uses — EstimateStrings fanned out
// over a shared pool — under the same writer pressure. Each batch must
// match one published version bit-for-bit.
TEST(ConcurrencyTest, EstimateStringsOnSharedPoolRacesWritersCleanly) {
  SwapFixture f = SwapFixture::Make();
  ServingCatalog catalog;
  catalog.PublishSynopsis("t", f.version_a);
  ThreadPool pool(4);

  const std::vector<std::string_view> xpaths = {
      "//article", "//article/author", "//inproceedings[./title]",
      "/dblp/article/title"};
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (int i = 0; i < 25; ++i) {
      catalog.PublishSynopsis("t", i % 2 == 0 ? f.version_b : f.version_a);
    }
    writing.store(false);
  });
  int batches = 0;
  while (writing.load() || batches < 48) {
    auto outcome = catalog.EstimateStrings("t", xpaths, pool.size(), &pool);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(f.MatchesOneVersion(outcome.value().results));
    ++batches;
  }
  writer.join();
  EXPECT_EQ(catalog.Stats().reader_fast_path_locks, 0);
}

// The budgeted-eviction hammer (run under TSan via tools/check.sh):
// readers batch-estimate several mapped tenants, each with its own image
// and decode cache, while an enforcer thread concurrently evicts the
// caches down to a tight catalog-wide byte budget and reclaims
// grace-expired rules. With several images the enforcer orders them by
// residency while readers are still decoding into them. Every batch —
// before, during, and after evictions — must be bit-identical to the
// eager oracle, and the exact residency accounting must audit cleanly
// once quiescent.
TEST(ConcurrencyTest, DecodeBudgetEnforcerRacesReadersBitIdentically) {
  Document doc = GenerateDataset(DatasetId::kDblp, 1200, 3);
  SynopsisOptions sopts;
  sopts.kappa = 4;
  auto synopsis = std::make_shared<Synopsis>(Synopsis::Build(doc, sopts));
  constexpr int kImages = 4;
  std::vector<std::shared_ptr<const MappedSynopsis>> images;
  for (int i = 0; i < kImages; ++i) {
    Result<std::unique_ptr<MappedSynopsis>> opened =
        MappedSynopsis::FromBuffer(BuildMappedImage(*synopsis));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    images.emplace_back(std::move(opened).value());
  }
  auto tenant = [](int i) { return "m" + std::to_string(i); };

  NameTable names = synopsis->names();
  std::vector<Query> queries;
  for (std::string_view text :
       {"//article", "//article/author", "//inproceedings[./title]",
        "/dblp/article/title", "//author", "//*"}) {
    Result<Query> q = ParseQuery(text, &names);
    ASSERT_TRUE(q.ok()) << text;
    queries.push_back(std::move(q).value());
  }
  SelectivityEstimator eager(*synopsis);
  std::vector<SelectivityEstimate> expect;
  for (const Query& q : queries) {
    Result<SelectivityEstimate> r = eager.EstimateQuery(q);
    ASSERT_TRUE(r.ok());
    expect.push_back(r.value());
  }
  auto matches = [&expect](
                     const std::vector<Result<SelectivityEstimate>>& results) {
    if (results.size() != expect.size()) return false;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) return false;
      if (results[i].value().lower != expect[i].lower ||
          results[i].value().upper != expect[i].upper) {
        return false;
      }
    }
    return true;
  };

  ServingCatalog catalog;
  for (int i = 0; i < kImages; ++i) {
    catalog.PublishMapped(tenant(i), images[static_cast<size_t>(i)]);
  }
  // Warm every cache once, then budget a fraction of the warm residency
  // so the enforcer has real evictions to do on every pass.
  for (int i = 0; i < kImages; ++i) {
    ASSERT_TRUE(
        catalog.EstimateBatch(tenant(i), std::span<const Query>(queries))
            .ok());
  }
  const int64_t warm = catalog.Stats().decode_resident_bytes;
  ASSERT_GT(warm, 0);
  catalog.SetDecodeBudget(std::max<int64_t>(warm / 4, 1));

  constexpr int kReaders = 6;
  std::atomic<bool> stop{false};
  std::atomic<bool> all_identical{true};
  std::atomic<int64_t> batches{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = r; !stop.load(); ++i) {
        auto outcome = catalog.EstimateBatch(
            tenant(i % kImages), std::span<const Query>(queries));
        if (!outcome.ok() || !matches(outcome.value().results)) {
          all_identical.store(false);
          stop.store(true);
          return;
        }
        batches.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      catalog.EnforceDecodeBudget();
      catalog.ReclaimEvictedRules();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (std::thread& th : threads) th.join();

  EXPECT_TRUE(all_identical.load());
  EXPECT_GE(batches.load(), kReaders);
  CatalogStats cs = catalog.Stats();
  EXPECT_GT(cs.decode_evictions, 0);
  EXPECT_EQ(cs.reader_fast_path_locks, 0);
  // Quiesced: one final enforce + reclaim brings residency within budget
  // with the exact accounting intact.
  catalog.EnforceDecodeBudget();
  catalog.ReclaimEvictedRules();
  EXPECT_LE(catalog.Stats().decode_resident_bytes, catalog.decode_budget());
  for (const auto& image : images) {
    Status audit = image->lossy_layer().AuditDecodeCache();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

}  // namespace
}  // namespace xmlsel
