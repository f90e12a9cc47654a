// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Ablations of the design choices DESIGN.md calls out:
//
//  (1) §5.4's child-label-map pruning of star upper bounds — the paper
//      reports it "boosted the accuracy of the upper bounds considerably";
//      we run the same lossy synopsis with and without the maps.
//  (2) BPLEX knobs (§4.1): max rank and pattern-search window versus the
//      resulting grammar size — the paper's claim that small ranks
//      (k ≤ 2…10) already compress well underlies Theorem 3's practical
//      relevance.
//  (3) DAG sharing alone versus DAG + pattern sharing (the two BPLEX
//      phases; [4] reports DAGs alone reach ~10% of edges, BPLEX ~5%).

#include <algorithm>
#include <cstdio>

#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "grammar/dag.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace xmlsel {
namespace {

void ChildMapAblation() {
  std::printf(
      "\n(1) child-label-map pruning of upper bounds (XMark, kappa=50%%)\n");
  Document doc = GenerateDataset(DatasetId::kXmark, 40000, 3);
  ExactEvaluator oracle(doc);
  WorkloadOptions wopts;
  wopts.count = 60;
  std::vector<Query> queries = GenerateWorkload(doc, wopts);

  SynopsisOptions opts;
  opts.kappa = 0;
  Synopsis synopsis = Synopsis::Build(doc, opts);
  synopsis.RecomputeLossy(synopsis.lossless().rule_count() / 2);

  auto eval = [&](bool with_maps) {
    const LabelMaps* maps = with_maps ? &synopsis.label_maps() : nullptr;
    SynopsisEvalCache rules =
        SynopsisEvalCache::Build(&synopsis.lossy(), maps);
    double lower_err = 0, upper_err = 0, raw_upper_err = 0;
    int64_t n = 0;
    for (const Query& q : queries) {
      int64_t exact = oracle.Count(q);
      if (exact == 0) continue;
      Result<CompiledQuery> cq = CompiledQuery::Compile(q);
      XMLSEL_CHECK(cq.ok());
      GrammarEvaluator lo(&rules, &cq.value(), maps, BoundMode::kLower);
      GrammarEvaluator hi(&rules, &cq.value(), maps, BoundMode::kUpper);
      int64_t l = lo.Evaluate().count;
      int64_t u = hi.Evaluate().count;
      int64_t raw = u;
      // Apply the facade's per-label population cap so the comparison
      // reflects what the estimator actually reports.
      LabelId test = q.node(q.match_node()).test;
      u = std::min(u, test > 0 ? synopsis.LabelTotal(test)
                               : synopsis.ElementTotal());
      u = std::max(u, l);
      XMLSEL_CHECK(l <= exact && (u >= exact || u >= l));
      lower_err += static_cast<double>(exact - l) / exact;
      upper_err += static_cast<double>(u - exact) / exact;
      raw_upper_err +=
          static_cast<double>(raw - exact) / static_cast<double>(exact);
      ++n;
    }
    std::printf(
        "  %-14s lower err %6.2f%%   capped upper err %8.2f%%   raw "
        "automaton upper err %.3g%%\n",
        with_maps ? "with maps" : "without maps", 100 * lower_err / n,
        100 * upper_err / n, 100 * raw_upper_err / n);
  };
  eval(true);
  eval(false);
}

void BplexKnobAblation() {
  std::printf("\n(2) BPLEX knobs vs grammar size (XMark 40k elements)\n");
  Document doc = GenerateDataset(DatasetId::kXmark, 40000, 3);
  std::printf("  %-28s %10s %8s\n", "configuration", "nodes", "rules");
  struct Config {
    const char* name;
    int32_t max_rank;
    int32_t window;
  };
  for (const Config& c :
       {Config{"max_rank=2", 2, 40000}, Config{"max_rank=4", 4, 40000},
        Config{"max_rank=10 (paper)", 10, 40000},
        Config{"max_rank=15", 15, 40000},
        Config{"window=100", 10, 100}, Config{"window=1000", 10, 1000}}) {
    BplexOptions opts;
    opts.max_rank = c.max_rank;
    opts.window_size = c.window;
    SltGrammar g = BplexCompress(doc, opts);
    std::printf("  %-28s %10lld %8d\n", c.name,
                static_cast<long long>(g.NodeCount()), g.rule_count());
  }
}

void DagVsBplexAblation() {
  std::printf("\n(3) DAG sharing alone vs full BPLEX (edges, %% of doc)\n");
  std::printf("  %-10s %10s %12s %12s\n", "dataset", "doc edges",
              "DAG", "BPLEX");
  for (DatasetId id : {DatasetId::kDblp, DatasetId::kXmark,
                       DatasetId::kCatalog}) {
    Document doc = GenerateDataset(id, 40000, 3);
    SltGrammar dag = BuildDagGrammar(doc);
    SltGrammar full = BplexCompress(doc);
    double base = static_cast<double>(doc.element_count());
    std::printf("  %-10s %10lld %10.1f%% %10.1f%%\n", DatasetName(id),
                static_cast<long long>(doc.element_count()),
                100.0 * static_cast<double>(dag.EdgeCount()) / base,
                100.0 * static_cast<double>(full.EdgeCount()) / base);
  }
}

}  // namespace
}  // namespace xmlsel

int main() {
  std::printf("Design-choice ablations (see DESIGN.md).\n");
  xmlsel::ChildMapAblation();
  xmlsel::BplexKnobAblation();
  xmlsel::DagVsBplexAblation();
  return 0;
}
