// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Full-pipeline verification: builds every layer from a document and runs
// each layer's checkers, collecting a per-layer report. This is the
// engine behind `xmlsel_tool verify <file>` and the BENCH_throughput.json
// `verify` section.

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automaton/grammar_eval.h"
#include "automaton/transition.h"
#include "baseline/exact.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "grammar/analysis.h"
#include "grammar/bplex.h"
#include "grammar/dag.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "storage/packed.h"
#include "verify/verify.h"
#include "workload/query_gen.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xmlsel {

namespace {

/// Documents up to this size get the exact-oracle containment check in
/// the kernel layer (the oracle is O(|Q|·|D|) per query).
constexpr int64_t kOracleLimit = 5000;

}  // namespace

bool VerifyReport::ok() const {
  for (const Entry& e : entries) {
    if (!e.status.ok()) return false;
  }
  return true;
}

std::string VerifyReport::ToString() const {
  std::string out;
  for (const Entry& e : entries) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.1f", e.millis);
    out += e.layer + ": " +
           (e.status.ok() ? std::string("OK") : e.status.ToString()) + " (" +
           ms + " ms)\n";
  }
  return out;
}

Status VerifySynopsis(const Synopsis& synopsis) {
  const SltGrammar& lossless = synopsis.lossless();
  const SltGrammar& lossy = synopsis.lossy();
  const int32_t label_count = synopsis.names().size();
  if (lossless.IsLossy()) {
    return Status::Corruption(
        "synopsis: lossless layer contains star nodes");
  }
  XMLSEL_RETURN_IF_ERROR(VerifyGrammar(lossless, label_count));
  XMLSEL_RETURN_IF_ERROR(VerifyGrammar(lossy, label_count));
  XMLSEL_RETURN_IF_ERROR(VerifyAllRulesReachable(lossy));

  // Mirror RecomputeLossy: κ ≤ 0 copies the lossless layer verbatim,
  // κ > 0 derives via MakeLossy.
  int32_t kappa = synopsis.options().kappa;
  if (kappa <= 0) {
    Status cmp = CompareGrammars(lossy, lossless);
    if (!cmp.ok()) {
      return Status::Corruption(
          "synopsis: κ=0 but the lossy layer differs from the lossless "
          "layer: " + cmp.message());
    }
  } else {
    XMLSEL_RETURN_IF_ERROR(VerifyLossy(lossy, lossless, kappa));
  }

  XMLSEL_RETURN_IF_ERROR(VerifyLabelMaps(synopsis.label_maps()));

  // Label totals must be exactly the multiplicity-weighted terminal
  // counts of the lossless layer (what RecomputeLabelTotals derives).
  if (lossless.rule_count() > 0) {
    GrammarAnalysis analysis = AnalyzeGrammar(lossless);
    std::vector<int64_t> totals(static_cast<size_t>(label_count), 0);
    for (int32_t i = 0; i < lossless.rule_count(); ++i) {
      int64_t mult = analysis.multiplicity[static_cast<size_t>(i)];
      if (mult == 0) continue;
      for (const GrammarNode& n : lossless.rule(i).nodes) {
        if (n.kind == GrammarNode::Kind::kTerminal && n.sym < label_count) {
          totals[static_cast<size_t>(n.sym)] += mult;
        }
      }
    }
    int64_t element_total = 0;
    for (LabelId l = 0; l < label_count; ++l) {
      element_total += totals[static_cast<size_t>(l)];
      if (synopsis.LabelTotal(l) != totals[static_cast<size_t>(l)]) {
        return Status::Corruption(
            "synopsis: LabelTotal(" + std::to_string(l) + ")=" +
            std::to_string(synopsis.LabelTotal(l)) +
            " disagrees with the lossless layer (" +
            std::to_string(totals[static_cast<size_t>(l)]) + ")");
      }
    }
    if (synopsis.ElementTotal() != element_total) {
      return Status::Corruption(
          "synopsis: ElementTotal()=" +
          std::to_string(synopsis.ElementTotal()) +
          " disagrees with the lossless layer (" +
          std::to_string(element_total) + ")");
    }
    if (element_total !=
        analysis.gen_size[static_cast<size_t>(lossless.start_rule())]) {
      return Status::Corruption(
          "synopsis: terminal totals (" + std::to_string(element_total) +
          ") disagree with gen_size[start] (" +
          std::to_string(
              analysis.gen_size[static_cast<size_t>(lossless.start_rule())]) +
          ")");
    }
  }

  // The stored (packed) layer must round-trip bit-exactly.
  return VerifyPackedRoundTrip(lossy, label_count);
}

VerifyReport VerifyPipeline(const Document& doc,
                            const SynopsisOptions& options) {
  VerifyReport report;
  auto run = [&report](const std::string& layer, auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    Status st = fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    report.entries.push_back(VerifyReport::Entry{layer, std::move(st), ms});
  };

  run("xml/document", [&] { return VerifyDocument(doc); });

  run("xml/roundtrip", [&]() -> Status {
    NodeId top = doc.document_element();
    // The writer serializes one top-level element; skip degenerate shapes.
    if (top == kNullNode || doc.next_sibling(top) != kNullNode) {
      return Status::OK();
    }
    std::string text = WriteXml(doc);
    Result<Document> reparsed = ParseXml(text);
    if (!reparsed.ok()) {
      return Status::Corruption("xml/roundtrip: reparse failed: " +
                                reparsed.status().ToString());
    }
    XMLSEL_RETURN_IF_ERROR(VerifyDocument(reparsed.value()));
    if (!doc.StructurallyEquals(reparsed.value())) {
      return Status::Corruption(
          "xml/roundtrip: parse(write(D)) differs structurally from D");
    }
    return Status::OK();
  });

  run("grammar/dag", [&]() -> Status {
    SltGrammar dag = BuildDagGrammar(doc);
    XMLSEL_RETURN_IF_ERROR(VerifyGrammar(dag, doc.names().size()));
    return VerifyExpansion(dag, doc);
  });

  run("grammar/bplex", [&]() -> Status {
    SltGrammar g = BplexCompress(doc, options.bplex);
    XMLSEL_RETURN_IF_ERROR(VerifyGrammar(g, doc.names().size()));
    XMLSEL_RETURN_IF_ERROR(VerifyAllRulesReachable(g));
    return VerifyExpansion(g, doc);
  });

  run("grammar/streaming", [&]() -> Status {
    NodeId top = doc.document_element();
    // The writer serializes one top-level element; skip degenerate shapes.
    if (top == kNullNode || doc.next_sibling(top) != kNullNode) {
      return Status::OK();
    }
    // Pin the streaming front end to the DOM pipeline over the same
    // bytes: Build(Parse(text)) and BuildStreaming(text) must produce
    // packed-identical synopses. (Comparing against a reparse, not
    // `doc` itself, because a programmatically built document may have
    // interned names out of document order.)
    std::string text = WriteXml(doc);
    Result<Document> reparsed = ParseXml(text);
    if (!reparsed.ok()) {
      return Status::Corruption("grammar/streaming: reparse failed: " +
                                reparsed.status().ToString());
    }
    Synopsis dom = Synopsis::Build(reparsed.value(), options);
    Result<Synopsis> streamed = Synopsis::BuildStreaming(text, options);
    if (!streamed.ok()) {
      return Status::Corruption("grammar/streaming: streaming build failed: " +
                                streamed.status().ToString());
    }
    XMLSEL_RETURN_IF_ERROR(VerifySynopsis(streamed.value()));
    const Synopsis& st = streamed.value();
    if (EncodePacked(st.lossless(), st.names().size()) !=
        EncodePacked(dom.lossless(), dom.names().size())) {
      return Status::Corruption(
          "grammar/streaming: streamed lossless layer differs from the DOM "
          "pipeline's packed bytes");
    }
    if (EncodePacked(st.lossy(), st.names().size()) !=
        EncodePacked(dom.lossy(), dom.names().size())) {
      return Status::Corruption(
          "grammar/streaming: streamed lossy layer differs from the DOM "
          "pipeline's packed bytes");
    }
    return Status::OK();
  });

  Synopsis synopsis = Synopsis::Build(doc, options);

  run("synopsis", [&]() -> Status {
    XMLSEL_RETURN_IF_ERROR(VerifySynopsis(synopsis));
    return VerifyLabelMapsCoverDocument(synopsis.label_maps(), doc,
                                        /*exact=*/true);
  });

  run("automaton/kernel", [&]() -> Status {
    if (doc.element_count() == 0) return Status::OK();
    WorkloadOptions wopts;
    wopts.count = 12;
    wopts.min_nodes = 3;
    wopts.max_nodes = 4;
    wopts.wildcard_prob = 0.1;
    wopts.seed = 7;
    std::vector<Query> queries = GenerateWorkload(doc, wopts);
    SelectivityEstimator est(synopsis);
    bool use_oracle = doc.element_count() <= kOracleLimit;
    ExactEvaluator* oracle = nullptr;
    std::unique_ptr<ExactEvaluator> oracle_holder;
    if (use_oracle) {
      oracle_holder = std::make_unique<ExactEvaluator>(doc);
      oracle = oracle_holder.get();
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Query& q = queries[qi];
      Result<SelectivityEstimate> r = est.EstimateQuery(q);
      if (!r.ok()) {
        return Status::Corruption(
            "automaton/kernel: query " + std::to_string(qi) +
            " failed to estimate: " + r.status().ToString());
      }
      if (r.value().lower > r.value().upper) {
        return Status::Corruption(
            "automaton/kernel: query " + std::to_string(qi) +
            " has inverted bounds [" + std::to_string(r.value().lower) +
            ", " + std::to_string(r.value().upper) + "]");
      }
      if (oracle != nullptr) {
        int64_t exact = oracle->Count(q);
        if (exact < r.value().lower || exact > r.value().upper) {
          return Status::Corruption(
              "automaton/kernel: query " + std::to_string(qi) +
              " exact count " + std::to_string(exact) + " outside [" +
              std::to_string(r.value().lower) + ", " +
              std::to_string(r.value().upper) + "]");
        }
      }
      // Audit the kernel state an evaluation leaves behind.
      Result<CompiledQuery> cq = CompiledQuery::Compile(q);
      if (!cq.ok()) continue;  // outside the automaton fragment
      GrammarEvaluator eval(&synopsis.eval_cache(), &cq.value(),
                            &synopsis.label_maps(), BoundMode::kLower);
      eval.Evaluate();
      XMLSEL_RETURN_IF_ERROR(
          VerifyStateRegistry(eval.registry(), &cq.value()));
      XMLSEL_RETURN_IF_ERROR(VerifySigmaMemo(
          eval.memo(), synopsis.lossy(), eval.registry(), &cq.value()));
    }
    return Status::OK();
  });

  run("storage/packed", [&]() -> Status {
    XMLSEL_RETURN_IF_ERROR(
        VerifyPackedRoundTrip(synopsis.lossless(), synopsis.names().size()));
    return VerifyPackedRoundTrip(synopsis.lossy(), synopsis.names().size());
  });

  run("storage/mapped", [&] { return VerifyMappedRoundTrip(synopsis); });

  return report;
}

}  // namespace xmlsel
