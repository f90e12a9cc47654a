// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Microbenchmarks for the allocation-free evaluation kernel: LinearForm's
// SSO add path (inline vs spilled), the pooled state registry's intern
// probe, the transition function through reusable scratch, and a full
// grammar evaluation split into cold (first) and steady-state (memo-warm)
// passes, plus the compiled-query cache's miss (rewrite + compile) and hit
// (rewrite + key probe) paths. Counters report the kernel's own
// instrumentation — notably heap_allocs, which must be 0 on the
// steady-state path.
//
// Besides the google-benchmark suite, the binary has a CI smoke mode:
//
//   ./bench_eval_kernel --smoke [output.json]
//
// which runs a small fixture through the cached batch path and a warm
// evaluator, writes the kernel invariants as JSON, and exits nonzero if
// the steady-state heap-allocation count is not 0 or the compiled-query
// cache never hits. It also reports `cold_eval_allocs`: the mean number
// of operator new calls per cold evaluation (a fresh evaluator built, run
// and destroyed for one bound of one query — the per-request shape of
// serving), counted by a global operator new hook. That hook sees what
// the kernel's own HotLoopHeapAllocs() counter does not: the walk's
// operand counts vectors, σ results and the evaluator's own members.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/counting.h"
#include "bench_env.h"
#include "automaton/grammar_eval.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"
#include "workload/query_gen.h"
#include "xmlsel/arena.h"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

// Global allocation hook: counts every heap allocation in the process, so
// a cold evaluation's full allocation total is measurable without
// instrumenting the library. The operators stay out of line: inlined into
// this file's new/delete pairs, GCC would flag malloc/free mismatches.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace xmlsel {
namespace {

void BM_LinearFormAddInline(benchmark::State& state) {
  // Two disjoint 1-term forms: the merge stays within inline storage.
  LinearForm a = LinearForm::Var(0, MakeQPair(1, 0));
  LinearForm b = LinearForm::Var(1, MakeQPair(2, 0));
  for (auto _ : state) {
    LinearForm x = a;
    x.Add(b);
    benchmark::DoNotOptimize(x.constant);
  }
}
BENCHMARK(BM_LinearFormAddInline);

void BM_LinearFormAddSpilled(benchmark::State& state) {
  // Eight-term forms: exercises the heap path and the backward merge.
  LinearForm a;
  LinearForm b;
  for (int32_t i = 0; i < 8; ++i) {
    a.PushTerm(LinearForm::VarKey(i, MakeQPair(1, 0)), i + 1);
    b.PushTerm(LinearForm::VarKey(i, MakeQPair(2, 0)), i + 1);
  }
  for (auto _ : state) {
    LinearForm x = a;
    x.Add(b);
    benchmark::DoNotOptimize(x.constant);
  }
}
BENCHMARK(BM_LinearFormAddSpilled);

void BM_InternSortedHit(benchmark::State& state) {
  StateRegistry reg;
  std::vector<QPair> pairs;
  for (int32_t n = 0; n < 8; ++n) pairs.push_back(MakeQPair(n, 0));
  // Populate with many states so probes traverse a realistic table.
  std::vector<QPair> tmp;
  for (uint32_t m = 1; m < 256; ++m) {
    tmp.clear();
    for (int32_t n = 0; n < 8; ++n) {
      if (m & (1u << n)) tmp.push_back(MakeQPair(n, 0));
    }
    reg.InternSorted(tmp);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.InternSorted(pairs));
  }
  state.counters["states"] = static_cast<double>(reg.size());
}
BENCHMARK(BM_InternSortedHit);

void BM_CountingTransition(benchmark::State& state) {
  NameTable names;
  Result<Query> q = ParseQuery("//a[./b]//c", &names);
  XMLSEL_CHECK(q.ok());
  Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
  XMLSEL_CHECK(cq.ok());
  LabelId a = names.Intern("a");
  StateRegistry reg;
  TransitionScratch<int64_t> scratch;
  AnnState<int64_t> p1;
  AnnState<int64_t> p2;
  AnnState<int64_t> out;
  // Warm once so the steady-state iterations are pure probe + merge.
  CountingTransitionInto<Int64Ops>(cq.value(), &reg, p1, p2, a, true,
                                   &scratch, &out);
  p1 = out;
  int64_t heap0 = HotLoopHeapAllocs();
  for (auto _ : state) {
    CountingTransitionInto<Int64Ops>(cq.value(), &reg, p1, p2, a, true,
                                     &scratch, &out);
    benchmark::DoNotOptimize(out.state);
  }
  state.counters["heap_allocs"] =
      static_cast<double>(HotLoopHeapAllocs() - heap0);
}
BENCHMARK(BM_CountingTransition);

struct Fixture {
  Document doc;
  Synopsis synopsis;
  Fixture()
      : doc(GenerateDataset(DatasetId::kXmark, 30000, 3)),
        synopsis(Synopsis::Build(doc, MakeOptions())) {}
  static SynopsisOptions MakeOptions() {
    SynopsisOptions o;
    o.kappa = 40;  // lossy: exercises the star machinery too
    return o;
  }
};

Fixture* GetFixture() {
  static Fixture f;
  return &f;
}

void BM_GrammarEvalCold(benchmark::State& state) {
  Fixture* f = GetFixture();
  NameTable names = f->synopsis.names();
  Result<Query> q = ParseQuery("//item[./mailbox]//keyword", &names);
  XMLSEL_CHECK(q.ok());
  Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
  XMLSEL_CHECK(cq.ok());
  GrammarEvalResult last;
  for (auto _ : state) {
    GrammarEvaluator eval(&f->synopsis.eval_cache(), &cq.value(),
                          &f->synopsis.label_maps(), BoundMode::kLower);
    last = eval.Evaluate();
    benchmark::DoNotOptimize(last.count);
  }
  state.counters["memo_hit_pct"] =
      last.memo_probes > 0
          ? 100.0 * static_cast<double>(last.memo_hits) /
                static_cast<double>(last.memo_probes)
          : 0.0;
  state.counters["pool_pairs"] = static_cast<double>(last.pool_pairs);
  state.counters["arena_bytes"] = static_cast<double>(last.arena_bytes);
  state.counters["heap_allocs"] = static_cast<double>(last.heap_allocs);
}
BENCHMARK(BM_GrammarEvalCold);

void BM_GrammarEvalSteadyState(benchmark::State& state) {
  Fixture* f = GetFixture();
  NameTable names = f->synopsis.names();
  Result<Query> q = ParseQuery("//item[./mailbox]//keyword", &names);
  XMLSEL_CHECK(q.ok());
  Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
  XMLSEL_CHECK(cq.ok());
  GrammarEvaluator eval(&f->synopsis.eval_cache(), &cq.value(),
                        &f->synopsis.label_maps(), BoundMode::kLower);
  int64_t cold_count = eval.Evaluate().count;  // fill the σ memo
  int64_t steady_allocs = 0;
  for (auto _ : state) {
    GrammarEvalResult r = eval.Evaluate();
    XMLSEL_CHECK(r.count == cold_count);
    steady_allocs += r.heap_allocs;
    benchmark::DoNotOptimize(r.count);
  }
  // The whole point of the kernel: a warm evaluator re-runs without any
  // heap allocation.
  state.counters["heap_allocs"] = static_cast<double>(steady_allocs);
}
BENCHMARK(BM_GrammarEvalSteadyState);

void BM_PrepareCacheCold(benchmark::State& state) {
  Fixture* f = GetFixture();
  NameTable names = f->synopsis.names();
  Result<Query> q = ParseQuery("//item[./mailbox]//keyword", &names);
  XMLSEL_CHECK(q.ok());
  CompiledQueryCache cache;
  for (auto _ : state) {
    cache.Clear();  // force the full rewrite → compile path every time
    Result<std::shared_ptr<const PreparedQuery>> pq =
        cache.Prepare(q.value());
    XMLSEL_CHECK(pq.ok());
    benchmark::DoNotOptimize(pq.value()->lower.size());
  }
}
BENCHMARK(BM_PrepareCacheCold);

void BM_PrepareCacheHit(benchmark::State& state) {
  Fixture* f = GetFixture();
  NameTable names = f->synopsis.names();
  Result<Query> q = ParseQuery("//item[./mailbox]//keyword", &names);
  XMLSEL_CHECK(q.ok());
  CompiledQueryCache cache;
  XMLSEL_CHECK(cache.Prepare(q.value()).ok());  // warm: one entry
  for (auto _ : state) {
    Result<std::shared_ptr<const PreparedQuery>> pq =
        cache.Prepare(q.value());
    XMLSEL_CHECK(pq.ok());
    benchmark::DoNotOptimize(pq.value()->lower.size());
  }
  state.counters["hit_pct"] =
      100.0 * static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_PrepareCacheHit);

/// CI smoke mode: exercises the cached batch path and a warm evaluator on
/// a small fixture and writes the kernel invariants as JSON. Returns
/// nonzero (after still writing the JSON) if an invariant is broken, so
/// the CI job fails with the evidence on disk.
int RunSmoke(const char* out_path) {
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  Document doc = GenerateDataset(DatasetId::kXmark, 8000, 3);
  SynopsisOptions sopts;
  sopts.kappa = 30;
  SelectivityEstimator est = SelectivityEstimator::Build(doc, sopts);
  const Synopsis& synopsis = est.synopsis();
  CompiledQueryCache& cache = synopsis.query_cache();

  WorkloadOptions wopts;
  wopts.count = 24;
  wopts.order_axis_prob = 0.2;
  wopts.seed = 11;
  std::vector<Query> queries = GenerateWorkload(doc, wopts);

  // Cold pass: every distinct shape is a miss that pays rewrite + compile.
  auto t0 = Clock::now();
  std::shared_ptr<const PreparedQuery> probe;
  for (const Query& q : queries) {
    Result<std::shared_ptr<const PreparedQuery>> pq = cache.Prepare(q);
    XMLSEL_CHECK(pq.ok());
    if (probe == nullptr && !pq.value()->unsatisfiable) probe = pq.value();
  }
  double compile_seconds = seconds_since(t0);
  int64_t misses = cache.misses();
  XMLSEL_CHECK(probe != nullptr);

  // Hit passes: the same shapes again, compile skipped entirely.
  constexpr int32_t kHitRounds = 3;
  t0 = Clock::now();
  for (int32_t r = 0; r < kHitRounds; ++r) {
    for (const Query& q : queries) {
      XMLSEL_CHECK(cache.Prepare(q).ok());
    }
  }
  double hit_seconds = seconds_since(t0);
  int64_t hits = cache.hits();

  // The batch estimator rides the same cache: one round, all hits.
  est.EstimateBatch(std::span<const Query>(queries), 1);
  int64_t batch_hits = cache.hits() - hits;

  // Warm evaluator: the steady-state path must not touch the heap. The
  // evaluator also surfaces the cache counters in its result.
  GrammarEvaluator eval(&synopsis.eval_cache(), &probe->lower,
                        &synopsis.label_maps(), BoundMode::kLower);
  eval.SetCompileCacheStats(cache.hits(), cache.misses());
  int64_t cold_count = eval.Evaluate().count;
  constexpr int32_t kEvalRounds = 20;
  int64_t steady_allocs = 0;
  GrammarEvalResult last;
  t0 = Clock::now();
  for (int32_t r = 0; r < kEvalRounds; ++r) {
    last = eval.Evaluate();
    XMLSEL_CHECK(last.count == cold_count);
    steady_allocs += last.heap_allocs;
  }
  double eval_seconds = seconds_since(t0) / kEvalRounds;

  // Cold evaluations: both bounds of every satisfiable query, each on a
  // fresh evaluator. Prepared up front so only the evaluators' own
  // allocations (construction, Evaluate(), destruction) are counted.
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const Query& q : queries) {
    Result<std::shared_ptr<const PreparedQuery>> pq = cache.Prepare(q);
    XMLSEL_CHECK(pq.ok());
    if (!pq.value()->unsatisfiable) prepared.push_back(pq.value());
  }
  int64_t cold_evals = 0;
  const int64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  for (const std::shared_ptr<const PreparedQuery>& pq : prepared) {
    for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
      const CompiledQuery& cq =
          mode == BoundMode::kLower ? pq->lower : UpperQueryOf(*pq);
      GrammarEvaluator cold(&synopsis.eval_cache(), &cq,
                            &synopsis.label_maps(), mode);
      benchmark::DoNotOptimize(cold.Evaluate().count);
      ++cold_evals;
    }
  }
  const double cold_eval_allocs =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs0) /
      static_cast<double>(cold_evals);

  double hit_rate = 100.0 * static_cast<double>(cache.hits()) /
                    static_cast<double>(cache.hits() + cache.misses());
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"eval_kernel_smoke\",\n");
  bench::WriteHostFingerprintJson(out, "  ",
                                  bench::CurrentHostFingerprint());
  std::fprintf(out, "  \"queries\": %zu,\n", queries.size());
  std::fprintf(out, "  \"distinct_shapes\": %lld,\n",
               static_cast<long long>(cache.size()));
  std::fprintf(out, "  \"compile_cache_hits\": %lld,\n",
               static_cast<long long>(cache.hits()));
  std::fprintf(out, "  \"compile_cache_misses\": %lld,\n",
               static_cast<long long>(misses));
  std::fprintf(out, "  \"compile_cache_hit_pct\": %.1f,\n", hit_rate);
  std::fprintf(out, "  \"batch_round_hits\": %lld,\n",
               static_cast<long long>(batch_hits));
  std::fprintf(out, "  \"cold_compile_seconds\": %.6f,\n", compile_seconds);
  std::fprintf(out, "  \"hit_prepare_seconds_per_round\": %.6f,\n",
               hit_seconds / kHitRounds);
  std::fprintf(out, "  \"warm_eval_seconds\": %.6f,\n", eval_seconds);
  std::fprintf(out, "  \"result_compile_cache_hits\": %lld,\n",
               static_cast<long long>(last.compile_cache_hits));
  std::fprintf(out, "  \"cold_evals\": %lld,\n",
               static_cast<long long>(cold_evals));
  std::fprintf(out, "  \"cold_eval_allocs\": %.1f,\n", cold_eval_allocs);
  std::fprintf(out, "  \"steady_state_heap_allocs\": %lld\n",
               static_cast<long long>(steady_allocs));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf(
      "smoke: %zu queries, %lld shapes, hit rate %.1f%%, cold compile "
      "%.4fs, hit round %.4fs, warm eval %.4fs, steady allocs %lld, "
      "cold eval allocs %.1f\n",
      queries.size(), static_cast<long long>(cache.size()), hit_rate,
      compile_seconds, hit_seconds / kHitRounds, eval_seconds,
      static_cast<long long>(steady_allocs), cold_eval_allocs);
  std::printf("wrote %s\n", out_path);

  int rc = 0;
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state heap allocs = %lld, want 0\n",
                 static_cast<long long>(steady_allocs));
    rc = 1;
  }
  if (cache.hits() <= 0) {
    std::fprintf(stderr, "FAIL: compiled-query cache never hit\n");
    rc = 1;
  }
  if (batch_hits <= 0) {
    std::fprintf(stderr, "FAIL: EstimateBatch bypassed the cache\n");
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace xmlsel

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "--smoke") {
    return xmlsel::RunSmoke(argc > 2 ? argv[2]
                                     : "BENCH_eval_kernel_smoke.json");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
