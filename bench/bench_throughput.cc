// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Batch-estimation throughput: aggregate QPS of the concurrent engine at
// 1/2/4/8 worker threads over an XMark workload. Emits JSON so the perf
// trajectory is tracked across PRs:
//
//   ./bench_throughput [output.json]   (default BENCH_throughput.json)
//
// The serving and storage benches write their own files
// (BENCH_serving.json, BENCH_storage.json); nothing is copied in here.
//
// Thread scaling is hardware-bound: on a single-core host all thread
// counts collapse to ~1×, so the JSON records hardware_concurrency
// alongside every measurement.
//
// The "kernel" section tracks the allocation-free evaluation kernel: the
// single-thread batch time against the last committed baseline, plus the
// kernel counters of a representative evaluation — including the
// steady-state heap-allocation count (a second Evaluate() on a warm
// evaluator), which must stay at zero — and the compiled-query cache
// counters of the batch runs above (k distinct shapes must compile
// exactly k times across all rounds and thread counts).
//
// The "verify" section times one full cross-layer verification pass
// (src/verify, xmlsel_tool verify) over the same fixture — the cost of a
// complete integrity audit relative to one batch round.

#include <chrono>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "bench_env.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "query/rewrite.h"
#include "verify/verify.h"
#include "workload/query_gen.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {
namespace {

constexpr int64_t kElements = 30000;
constexpr int32_t kKappa = 40;  // lossy: exercises the star machinery
constexpr int32_t kQueryCount = 96;
constexpr int32_t kRounds = 5;

/// Single-thread batch seconds of the committed BENCH_throughput.json
/// baseline (PR 1, pre-kernel) — the yardstick for the kernel speedup.
constexpr double kBaselineSingleThreadSeconds = 1.7477;
/// Host fingerprint (bench_env.h) of the box that measured the baseline;
/// the speedup-vs-baseline figure is flagged when run elsewhere.
constexpr uint64_t kBaselineHostHash = 0x08cf3707b570dbecULL;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed experiment: `rounds` batch evaluations of the workload.
double MeasureBatchSeconds(SelectivityEstimator* est,
                           const std::vector<Query>& queries,
                           int32_t threads, int32_t rounds) {
  std::span<const Query> span(queries);
  est->EstimateBatch(span, threads);  // warm-up (pool spin-up, caches)
  auto t0 = std::chrono::steady_clock::now();
  for (int32_t r = 0; r < rounds; ++r) {
    auto results = est->EstimateBatch(span, threads);
    XMLSEL_CHECK(results.size() == queries.size());
  }
  return SecondsSince(t0);
}

int Run(const char* out_path) {
  // Open the output first so a bad path fails before minutes of work.
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("building XMark fixture: %lld elements, kappa=%d...\n",
              static_cast<long long>(kElements), kKappa);
  Document doc = GenerateDataset(DatasetId::kXmark, kElements, 3);
  SynopsisOptions sopts;
  sopts.kappa = kKappa;
  SelectivityEstimator est = SelectivityEstimator::Build(doc, sopts);

  WorkloadOptions wopts;
  wopts.count = kQueryCount;
  wopts.order_axis_prob = 0.15;
  wopts.seed = 7;
  std::vector<Query> queries = GenerateWorkload(doc, wopts);

  // --- Thread scaling of the batch engine.
  struct Point {
    int32_t threads;
    double seconds;
    double qps;
  };
  std::vector<Point> points;
  double base_qps = 0.0;
  const bool scaling_valid = bench::WarnIfScalingInvalid("thread");
  for (int32_t threads : {1, 2, 4, 8}) {
    double secs = MeasureBatchSeconds(&est, queries, threads, kRounds);
    double qps = static_cast<double>(queries.size()) * kRounds / secs;
    if (threads == 1) base_qps = qps;
    points.push_back({threads, secs, qps});
    if (scaling_valid) {
      std::printf("threads=%d  %.3fs  %.0f q/s  (%.2fx)\n", threads, secs,
                  qps, qps / base_qps);
    } else {
      std::printf("threads=%d  %.3fs  %.0f q/s\n", threads, secs, qps);
    }
  }

  // --- Compiled-query cache across all batch runs above: every distinct
  // satisfiable shape compiled exactly once (on the sequential 1-thread
  // warm-up), everything after was a hit.
  const CompiledQueryCache& qcache = est.synopsis().query_cache();
  XMLSEL_CHECK(qcache.misses() == qcache.size());
  double qcache_hit_pct =
      100.0 * static_cast<double>(qcache.hits()) /
      static_cast<double>(qcache.hits() + qcache.misses());
  std::printf("compiled-query cache: %lld shapes, %lld hits (%.1f%%)\n",
              static_cast<long long>(qcache.size()),
              static_cast<long long>(qcache.hits()), qcache_hit_pct);

  // --- Kernel counters of a representative evaluation: aggregate the
  // first (cold) Evaluate over the workload, and the steady-state
  // heap-allocation count of a second Evaluate on each warm evaluator.
  std::vector<CompiledQuery> compiled;
  for (const Query& q : queries) {
    Result<RewriteOutcome> rw = RewriteReverseAxes(q);
    XMLSEL_CHECK(rw.ok() && !rw.value().unsatisfiable);
    Result<CompiledQuery> cq = CompiledQuery::Compile(rw.value().query);
    XMLSEL_CHECK(cq.ok());
    compiled.push_back(std::move(cq).value());
  }
  const Synopsis& synopsis = est.synopsis();
  const SynopsisEvalCache* cache = &synopsis.eval_cache();
  GrammarEvalResult agg;
  int64_t steady_heap_allocs = 0;
  for (const CompiledQuery& cq : compiled) {
    GrammarEvaluator lower(cache, &cq, &synopsis.label_maps(),
                           BoundMode::kLower);
    GrammarEvalResult cold_res = lower.Evaluate();
    GrammarEvalResult warm_res = lower.Evaluate();
    XMLSEL_CHECK(warm_res.count == cold_res.count);
    agg.memo_probes += cold_res.memo_probes;
    agg.memo_hits += cold_res.memo_hits;
    agg.intern_probes += cold_res.intern_probes;
    agg.intern_hits += cold_res.intern_hits;
    agg.pool_pairs += cold_res.pool_pairs;
    agg.arena_bytes += cold_res.arena_bytes;
    agg.heap_allocs += cold_res.heap_allocs;
    steady_heap_allocs += warm_res.heap_allocs;
  }
  // --- One full cross-layer verification pass over the same fixture.
  auto vt0 = std::chrono::steady_clock::now();
  VerifyReport verify_report = VerifyPipeline(doc, sopts);
  double verify_seconds = SecondsSince(vt0);
  XMLSEL_CHECK(verify_report.ok());
  std::printf("verify: full pipeline audit %.3fs over %zu layers\n",
              verify_seconds, verify_report.entries.size());

  bool foreign_baseline = bench::WarnIfForeignBaseline(
      kBaselineHostHash, "kernel single-thread");
  double kernel_speedup = kBaselineSingleThreadSeconds / points[0].seconds;
  std::printf(
      "kernel: 1-thread %.3fs vs %.4fs baseline (%.2fx); steady-state "
      "heap allocs %lld\n",
      points[0].seconds, kBaselineSingleThreadSeconds, kernel_speedup,
      static_cast<long long>(steady_heap_allocs));

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"throughput\",\n");
  bench::WriteHostFingerprintJson(f, "  ", bench::CurrentHostFingerprint());
  std::fprintf(f, "  \"dataset\": \"xmark\",\n");
  std::fprintf(f, "  \"elements\": %lld,\n",
               static_cast<long long>(kElements));
  std::fprintf(f, "  \"kappa\": %d,\n", kKappa);
  std::fprintf(f, "  \"queries\": %zu,\n", queries.size());
  std::fprintf(f, "  \"rounds\": %d,\n", kRounds);
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"effective_threads\": %d,\n", DefaultThreadCount());
  // speedup_vs_1 is a parallel-speedup claim; it is omitted entirely when
  // the host cannot support one (scaling_valid false).
  std::fprintf(f, "  \"scaling_valid\": %s,\n",
               scaling_valid ? "true" : "false");
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f, "    {\"threads\": %d, \"seconds\": %.4f, \"qps\": %.1f",
                 p.threads, p.seconds, p.qps);
    if (scaling_valid) {
      std::fprintf(f, ", \"speedup_vs_1\": %.3f", p.qps / base_qps);
    }
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernel\": {\n");
  std::fprintf(f, "    \"baseline_single_thread_seconds\": %.4f,\n",
               kBaselineSingleThreadSeconds);
  std::fprintf(f, "    \"baseline_host_hash\": \"%016llx\",\n",
               static_cast<unsigned long long>(kBaselineHostHash));
  std::fprintf(f, "    \"baseline_is_foreign_host\": %s,\n",
               foreign_baseline ? "true" : "false");
  std::fprintf(f, "    \"single_thread_seconds\": %.4f,\n",
               points[0].seconds);
  std::fprintf(f, "    \"speedup_vs_baseline\": %.3f,\n", kernel_speedup);
  std::fprintf(f, "    \"memo_probes\": %lld,\n",
               static_cast<long long>(agg.memo_probes));
  std::fprintf(f, "    \"memo_hits\": %lld,\n",
               static_cast<long long>(agg.memo_hits));
  std::fprintf(f, "    \"intern_probes\": %lld,\n",
               static_cast<long long>(agg.intern_probes));
  std::fprintf(f, "    \"intern_hits\": %lld,\n",
               static_cast<long long>(agg.intern_hits));
  std::fprintf(f, "    \"pool_pairs\": %lld,\n",
               static_cast<long long>(agg.pool_pairs));
  std::fprintf(f, "    \"arena_bytes\": %lld,\n",
               static_cast<long long>(agg.arena_bytes));
  std::fprintf(f, "    \"cold_heap_allocs\": %lld,\n",
               static_cast<long long>(agg.heap_allocs));
  std::fprintf(f, "    \"steady_state_heap_allocs\": %lld,\n",
               static_cast<long long>(steady_heap_allocs));
  std::fprintf(f, "    \"compile_cache_shapes\": %lld,\n",
               static_cast<long long>(qcache.size()));
  std::fprintf(f, "    \"compile_cache_hits\": %lld,\n",
               static_cast<long long>(qcache.hits()));
  std::fprintf(f, "    \"compile_cache_misses\": %lld,\n",
               static_cast<long long>(qcache.misses()));
  std::fprintf(f, "    \"compile_cache_hit_pct\": %.1f\n", qcache_hit_pct);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"verify\": {\n");
  std::fprintf(f, "    \"pipeline_seconds\": %.4f,\n", verify_seconds);
  std::fprintf(f, "    \"layers\": [\n");
  for (size_t i = 0; i < verify_report.entries.size(); ++i) {
    const VerifyReport::Entry& e = verify_report.entries[i];
    std::fprintf(f, "      {\"layer\": \"%s\", \"millis\": %.1f}%s\n",
                 e.layer.c_str(), e.millis,
                 i + 1 < verify_report.entries.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace xmlsel

int main(int argc, char** argv) {
  return xmlsel::Run(argc > 1 ? argv[1] : "BENCH_throughput.json");
}
