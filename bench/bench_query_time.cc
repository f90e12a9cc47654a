// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Microbenchmarks for **Theorems 3 and 4** (§5.3): selectivity counting
// over a grammar runs in time O(|P|^k |G|) — in practice linear in the
// grammar size, scaling with the query's branching factor and number of
// following axes, and far cheaper than evaluating over the document.
// Uses google-benchmark; run with --benchmark_min_time=... to tighten.
//
// Queries are prepared through the fixture synopsis's compiled-query
// cache (the production path), so repeated shapes compile exactly once
// per fixture.

#include <benchmark/benchmark.h>

#include <memory>

#include "automaton/compiled_cache.h"
#include "automaton/doc_eval.h"
#include "automaton/grammar_eval.h"
#include "data/generator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"

namespace xmlsel {
namespace {

struct Fixture {
  Document doc;
  Synopsis synopsis;
  Fixture(int64_t elements, int32_t kappa)
      : doc(GenerateDataset(DatasetId::kXmark, elements, 3)),
        synopsis(Synopsis::Build(doc, MakeOptions(kappa))) {}
  static SynopsisOptions MakeOptions(int32_t kappa) {
    SynopsisOptions o;
    o.kappa = kappa;
    return o;
  }
};

Fixture* GetFixture(int64_t elements) {
  static Fixture f10k(10000, 0);
  static Fixture f30k(30000, 0);
  static Fixture f90k(90000, 0);
  if (elements <= 10000) return &f10k;
  if (elements <= 30000) return &f30k;
  return &f90k;
}

/// Parses `text` and takes it through the fixture's compiled-query cache;
/// `hold` keeps the cache handle (and the returned automaton) alive.
const CompiledQuery& PrepareLower(Fixture* f, const char* text,
                                  std::shared_ptr<const PreparedQuery>* hold) {
  NameTable names = f->synopsis.names();
  Result<Query> q = ParseQuery(text, &names);
  XMLSEL_CHECK(q.ok());
  Result<std::shared_ptr<const PreparedQuery>> pq =
      f->synopsis.query_cache().Prepare(q.value());
  XMLSEL_CHECK(pq.ok() && !pq.value()->unsatisfiable);
  *hold = std::move(pq).value();
  return (*hold)->lower;
}

void BM_GrammarCount(benchmark::State& state) {
  Fixture* f = GetFixture(state.range(0));
  std::shared_ptr<const PreparedQuery> hold;
  const CompiledQuery& cq =
      PrepareLower(f, "//item[./mailbox]//keyword", &hold);
  for (auto _ : state) {
    GrammarEvaluator eval(&f->synopsis.eval_cache(), &cq,
                          &f->synopsis.label_maps(), BoundMode::kLower);
    benchmark::DoNotOptimize(eval.Evaluate().count);
  }
  state.counters["grammar_nodes"] =
      static_cast<double>(f->synopsis.lossy().NodeCount());
}
BENCHMARK(BM_GrammarCount)->Arg(10000)->Arg(30000)->Arg(90000);

void BM_DocumentCount(benchmark::State& state) {
  Fixture* f = GetFixture(state.range(0));
  std::shared_ptr<const PreparedQuery> hold;
  const CompiledQuery& cq =
      PrepareLower(f, "//item[./mailbox]//keyword", &hold);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateOnDocument(cq, f->doc).count);
  }
  state.counters["doc_nodes"] = static_cast<double>(f->doc.element_count());
}
BENCHMARK(BM_DocumentCount)->Arg(10000)->Arg(30000)->Arg(90000);

void BM_BranchingFactor(benchmark::State& state) {
  Fixture* f = GetFixture(30000);
  const char* queries[] = {
      "//item//keyword",                                // b = 1
      "//item[./mailbox]//keyword",                     // b = 2
      "//item[./mailbox][./payment]//keyword",          // b = 3
      "//item[./mailbox][./payment][./name]//keyword",  // b = 4
  };
  std::shared_ptr<const PreparedQuery> hold;
  const CompiledQuery& cq =
      PrepareLower(f, queries[state.range(0) - 1], &hold);
  for (auto _ : state) {
    GrammarEvaluator eval(&f->synopsis.eval_cache(), &cq,
                          &f->synopsis.label_maps(), BoundMode::kLower);
    benchmark::DoNotOptimize(eval.Evaluate().count);
  }
}
BENCHMARK(BM_BranchingFactor)->DenseRange(1, 4);

void BM_FollowingAxes(benchmark::State& state) {
  Fixture* f = GetFixture(30000);
  const char* queries[] = {
      "//bidder//increase",
      "//bidder/following::increase",
      "//bidder[./following::privacy]/following::increase",
  };
  std::shared_ptr<const PreparedQuery> hold;
  const CompiledQuery& cq = PrepareLower(f, queries[state.range(0)], &hold);
  for (auto _ : state) {
    GrammarEvaluator eval(&f->synopsis.eval_cache(), &cq,
                          &f->synopsis.label_maps(), BoundMode::kLower);
    benchmark::DoNotOptimize(eval.Evaluate().count);
  }
}
BENCHMARK(BM_FollowingAxes)->DenseRange(0, 2);

}  // namespace
}  // namespace xmlsel

BENCHMARK_MAIN();
