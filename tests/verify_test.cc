// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Mutation tests for the cross-layer invariant verifier (src/verify).
// Each test seeds one corruption class into an otherwise-valid artifact
// and asserts that the matching checker (a) rejects it and (b) pinpoints
// the damage in its diagnostic. A final suite runs the full pipeline
// verifier over real datasets and κ values to pin zero false positives.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automaton/grammar_eval.h"
#include "automaton/state.h"
#include "automaton/transition.h"
#include "data/generator.h"
#include "estimator/synopsis.h"
#include "grammar/bplex.h"
#include "grammar/dag.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "query/parser.h"
#include "storage/packed.h"
#include "verify/verify.h"
#include "xml/parser.h"

namespace xmlsel {
namespace {

Document SingleTree(const char* xml) {
  auto r = ParseXml(xml);
  XMLSEL_CHECK(r.ok());
  return std::move(r).value();
}

/// Asserts `st` is an error whose message contains `needle`.
void ExpectDiagnostic(const Status& st, const std::string& needle) {
  ASSERT_FALSE(st.ok()) << "corruption went undetected";
  EXPECT_NE(st.ToString().find(needle), std::string::npos)
      << "diagnostic does not pinpoint the damage: " << st.ToString();
}

/// A0(y1) → 1(y1, ⊥);  A1 → A0(2(⊥, ⊥)).  Small, valid, exercises
/// parameters, references, and terminals.
SltGrammar TwoRuleGrammar() {
  SltGrammar g;
  GrammarRule r0;
  r0.rank = 1;
  RhsBuilder b0(&r0);
  b0.SetRoot(b0.Terminal(1, b0.Param(0), kNullNode));
  g.AddRule(std::move(r0));
  GrammarRule r1;
  RhsBuilder b1(&r1);
  b1.SetRoot(b1.Nonterminal(0, {b1.Terminal(2, kNullNode, kNullNode)}));
  g.AddRule(std::move(r1));
  return g;
}

// --- SLT well-formedness (grammar layer) ---------------------------------

TEST(VerifyGrammarTest, AcceptsValidGrammar) {
  SltGrammar g = TwoRuleGrammar();
  EXPECT_TRUE(VerifyGrammar(g).ok());
  EXPECT_TRUE(VerifyAllRulesReachable(g).ok());
}

TEST(VerifyGrammarTest, DetectsForwardRuleReference) {
  SltGrammar g = TwoRuleGrammar();
  // A1's call now references A1 itself: j < i violated (cycle seed).
  for (GrammarNode& n : g.mutable_rule(1).nodes) {
    if (n.kind == GrammarNode::Kind::kNonterminal) n.sym = 1;
  }
  ExpectDiagnostic(VerifyGrammar(g), "strictly earlier rules");
}

TEST(VerifyGrammarTest, DetectsCallArityMismatch) {
  SltGrammar g = TwoRuleGrammar();
  for (GrammarNode& n : g.mutable_rule(1).nodes) {
    if (n.kind == GrammarNode::Kind::kNonterminal) n.children.clear();
  }
  ExpectDiagnostic(VerifyGrammar(g), "rank is");
}

TEST(VerifyGrammarTest, DetectsParamOrderViolation) {
  // A0(y1, y2) → 1(y2, y1): both parameters used once but out of order.
  SltGrammar g;
  GrammarRule r0;
  r0.rank = 2;
  RhsBuilder b0(&r0);
  b0.SetRoot(b0.Terminal(1, b0.Param(1), b0.Param(0)));
  g.AddRule(std::move(r0));
  GrammarRule r1;
  RhsBuilder b1(&r1);
  b1.SetRoot(b1.Nonterminal(
      0, {b1.Terminal(2, kNullNode, kNullNode),
          b1.Terminal(3, kNullNode, kNullNode)}));
  g.AddRule(std::move(r1));
  ExpectDiagnostic(VerifyGrammar(g), "parameters must appear in order");
}

TEST(VerifyGrammarTest, DetectsMissingParam) {
  SltGrammar g = TwoRuleGrammar();
  // Drop A0's parameter use: rank 1 but zero parameters in the RHS.
  for (GrammarNode& n : g.mutable_rule(0).nodes) {
    if (n.kind == GrammarNode::Kind::kTerminal) n.children[0] = kNullNode;
  }
  ExpectDiagnostic(VerifyGrammar(g), "parameters, rank is");
}

TEST(VerifyGrammarTest, DetectsTerminalArity) {
  SltGrammar g = TwoRuleGrammar();
  g.mutable_rule(0).nodes[1].children.resize(1);  // node 1 is the terminal
  ExpectDiagnostic(VerifyGrammar(g), "want 2 (binary encoding)");
}

TEST(VerifyGrammarTest, DetectsRhsCycle) {
  SltGrammar g = TwoRuleGrammar();
  // The terminal's ⊥ child now points back at the rule root.
  GrammarRule& r = g.mutable_rule(0);
  r.nodes[static_cast<size_t>(r.root)].children[1] = r.root;
  ExpectDiagnostic(VerifyGrammar(g), "reached twice");
}

TEST(VerifyGrammarTest, DetectsReservedTerminalLabel) {
  SltGrammar g = TwoRuleGrammar();
  g.mutable_rule(1).nodes[0].sym = 0;  // label 0 is the virtual root
  ExpectDiagnostic(VerifyGrammar(g), "reserved or negative");
}

TEST(VerifyGrammarTest, DetectsUnrealizableStarStats) {
  SltGrammar g = TwoRuleGrammar();
  g.InternStarStats(StarStats{5, 3});  // size < height: no such pattern
  ExpectDiagnostic(VerifyGrammar(g), "not realizable");
}

TEST(VerifyGrammarTest, DetectsStartRuleWithParams) {
  SltGrammar g;
  GrammarRule r0;
  r0.rank = 1;
  RhsBuilder b0(&r0);
  b0.SetRoot(b0.Terminal(1, b0.Param(0), kNullNode));
  g.AddRule(std::move(r0));
  ExpectDiagnostic(VerifyGrammar(g), "start rule");
}

TEST(VerifyGrammarTest, DetectsUnreachableRule) {
  SltGrammar g;
  GrammarRule r0;
  RhsBuilder b0(&r0);
  b0.SetRoot(b0.Terminal(1, kNullNode, kNullNode));
  g.AddRule(std::move(r0));  // never referenced
  GrammarRule r1;
  RhsBuilder b1(&r1);
  b1.SetRoot(b1.Terminal(2, kNullNode, kNullNode));
  g.AddRule(std::move(r1));
  EXPECT_TRUE(VerifyGrammar(g).ok());  // well-formed, just not normalized
  ExpectDiagnostic(VerifyAllRulesReachable(g), "rule A0");
}

// --- Expansion witness (DAG/BPLEX postcondition) -------------------------

TEST(VerifyExpansionTest, DetectsLabelSwap) {
  Document doc = SingleTree("<a><b><c/></b><b><c/></b><d/></a>");
  SltGrammar g = BuildDagGrammar(doc);
  ASSERT_TRUE(VerifyExpansion(g, doc).ok());
  // Swap one terminal's label for another valid one: same shape and
  // size, different tree — only the hash witness can see it.
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    for (GrammarNode& n : g.mutable_rule(i).nodes) {
      if (n.kind == GrammarNode::Kind::kTerminal) {
        n.sym = n.sym == 1 ? 2 : 1;
        ExpectDiagnostic(VerifyExpansion(g, doc), "shape or labels");
        return;
      }
    }
  }
  FAIL() << "no terminal found to corrupt";
}

TEST(VerifyExpansionTest, DetectsDroppedSubtree) {
  Document doc = SingleTree("<a><b><c/></b><b><c/></b><d/></a>");
  SltGrammar g = BplexCompress(doc);
  ASSERT_TRUE(VerifyExpansion(g, doc).ok());
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    for (GrammarNode& n : g.mutable_rule(i).nodes) {
      if (n.kind == GrammarNode::Kind::kTerminal &&
          n.children[0] != kNullNode) {
        n.children[0] = kNullNode;  // prune the left (child) subtree
        ExpectDiagnostic(VerifyExpansion(g, doc), "nodes");
        return;
      }
    }
  }
  FAIL() << "no terminal with a live child found to corrupt";
}

// --- κ-lossy soundness ---------------------------------------------------

TEST(VerifyLossyTest, DetectsStaleLossyLayer) {
  Document doc = GenerateDataset(DatasetId::kXmark, 600, 11);
  SltGrammar lossless = BplexCompress(doc);
  LossyGrammar lg = MakeLossy(lossless, 3);
  ASSERT_TRUE(VerifyLossy(lg.grammar, lossless, 3).ok());
  // Any drift between the stored lossy layer and MakeLossy(lossless, κ)
  // must be flagged — here a single relabeled terminal.
  for (int32_t i = 0; i < lg.grammar.rule_count(); ++i) {
    for (GrammarNode& n : lg.grammar.mutable_rule(i).nodes) {
      if (n.kind == GrammarNode::Kind::kTerminal) {
        n.sym = n.sym == 1 ? 2 : 1;
        ExpectDiagnostic(VerifyLossy(lg.grammar, lossless, 3),
                         "disagrees with MakeLossy");
        return;
      }
    }
  }
  FAIL() << "no terminal found to corrupt";
}

// --- Label maps ----------------------------------------------------------

TEST(VerifyLabelMapsTest, DetectsAsymmetry) {
  Document doc = SingleTree("<a><b/><c/></a>");
  LabelMaps maps = ComputeLabelMaps(doc);
  ASSERT_TRUE(VerifyLabelMaps(maps).ok());
  bool corrupted = false;
  for (int32_t p = 0; p < maps.label_count && !corrupted; ++p) {
    for (int32_t c = 0; c < maps.label_count && !corrupted; ++c) {
      if (maps.child[static_cast<size_t>(p)][static_cast<size_t>(c)]) {
        maps.child[static_cast<size_t>(p)][static_cast<size_t>(c)] = false;
        corrupted = true;  // parent[c][p] still claims the edge
      }
    }
  }
  ASSERT_TRUE(corrupted);
  ExpectDiagnostic(VerifyLabelMaps(maps), "disagree at");
}

TEST(VerifyLabelMapsTest, DetectsMissingRealEdge) {
  Document doc = SingleTree("<a><b/><c/></a>");
  LabelMaps maps = ComputeLabelMaps(doc);
  // Remove one real edge from BOTH maps: still symmetric, but now the
  // upper-bound automaton would prune true matches.
  bool corrupted = false;
  for (int32_t p = 0; p < maps.label_count && !corrupted; ++p) {
    for (int32_t c = 0; c < maps.label_count && !corrupted; ++c) {
      if (maps.child[static_cast<size_t>(p)][static_cast<size_t>(c)]) {
        maps.child[static_cast<size_t>(p)][static_cast<size_t>(c)] = false;
        maps.parent[static_cast<size_t>(c)][static_cast<size_t>(p)] = false;
        corrupted = true;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_TRUE(VerifyLabelMaps(maps).ok());
  ExpectDiagnostic(VerifyLabelMapsCoverDocument(maps, doc, /*exact=*/false),
                   "miss real edge");
}

// --- Document / binary tree ----------------------------------------------

TEST(VerifyDocumentTest, DetectsBrokenParentBacklink) {
  Document doc = SingleTree("<a><b/><c/></a>");
  ASSERT_TRUE(VerifyDocument(doc).ok());
  NodeId b = doc.first_child(doc.document_element());
  doc.TestOnlyMutableNode(b)->parent = b;
  ExpectDiagnostic(VerifyDocument(doc), "parent link");
}

TEST(VerifyDocumentTest, DetectsLabelOutOfRange) {
  Document doc = SingleTree("<a><b/><c/></a>");
  NodeId b = doc.first_child(doc.document_element());
  doc.TestOnlyMutableNode(b)->label = 99;
  ExpectDiagnostic(VerifyDocument(doc), "outside the name table");
}

TEST(VerifyDocumentTest, DetectsSiblingCycle) {
  Document doc = SingleTree("<a><b/><c/></a>");
  // Close the sibling chain into a loop b → c → b with both backlinks
  // consistent, so only the traversal itself can notice.
  NodeId b = doc.first_child(doc.document_element());
  NodeId c = doc.next_sibling(b);
  doc.TestOnlyMutableNode(c)->next_sibling = b;
  doc.TestOnlyMutableNode(b)->prev_sibling = c;
  Status st = VerifyDocument(doc);
  ASSERT_FALSE(st.ok()) << "sibling cycle went undetected";
  // Any closed chain necessarily breaks a backlink somewhere, so the
  // verifier may pinpoint either the cycle itself or the torn backlink.
  std::string text = st.ToString();
  EXPECT_TRUE(text.find("cycle") != std::string::npos ||
              text.find("reached twice") != std::string::npos ||
              text.find("prev_sibling") != std::string::npos)
      << text;
}

// --- Automaton kernel (state registry + σ-memo) --------------------------

struct KernelFixture {
  Document doc;
  Synopsis synopsis;
  NameTable names;
  Result<Query> query;
  Result<CompiledQuery> cq;

  KernelFixture()
      : doc(GenerateDataset(DatasetId::kXmark, 800, 5)),
        synopsis(Synopsis::Build(doc, {})),
        names(synopsis.names()),
        query(ParseQuery("//item[./mailbox]//keyword", &names)),
        cq(CompiledQuery::Compile(query.value())) {}
};

TEST(VerifyKernelTest, DetectsRegistryPoolCorruption) {
  KernelFixture f;
  ASSERT_TRUE(f.cq.ok());
  GrammarEvaluator eval(&f.synopsis.eval_cache(), &f.cq.value(),
                        &f.synopsis.label_maps(), BoundMode::kLower);
  eval.Evaluate();
  ASSERT_TRUE(VerifyStateRegistry(eval.registry(), &f.cq.value()).ok());
  ASSERT_GT(eval.registry().pool_pairs(), 0);
  // Overwrite one pool word with a pair naming an impossible query node:
  // the span-local scan must name the damaged state.
  eval.TestOnlyMutableRegistry()->TestOnlyCorruptPool(
      0, static_cast<QPair>(0x7fff0000u));
  ExpectDiagnostic(VerifyStateRegistry(eval.registry(), &f.cq.value()),
                   "out of range");
}

TEST(VerifyKernelTest, DetectsDenseWordCorruption) {
  KernelFixture f;
  ASSERT_TRUE(f.cq.ok());
  GrammarEvaluator eval(&f.synopsis.eval_cache(), &f.cq.value(),
                        &f.synopsis.label_maps(), BoundMode::kLower);
  eval.Evaluate();
  ASSERT_TRUE(eval.registry().dense());
  ASSERT_TRUE(VerifyStateRegistry(eval.registry(), &f.cq.value()).ok());
  ASSERT_GT(eval.registry().size(), 1);
  // Flip bits in one state's dense image: its words no longer re-derive
  // from the sorted span, and the audit must say exactly that.
  eval.TestOnlyMutableRegistry()->TestOnlyCorruptWords(1, 0, ~uint64_t{0});
  ExpectDiagnostic(VerifyStateRegistry(eval.registry(), &f.cq.value()),
                   "do not re-derive");
}

TEST(VerifyKernelTest, DetectsSigmaMemoKeyCorruption) {
  KernelFixture f;
  ASSERT_TRUE(f.cq.ok());
  GrammarEvaluator eval(&f.synopsis.eval_cache(), &f.cq.value(),
                        &f.synopsis.label_maps(), BoundMode::kLower);
  eval.Evaluate();
  ASSERT_TRUE(VerifySigmaMemo(eval.memo(), f.synopsis.lossy(),
                              eval.registry(), &f.cq.value())
                  .ok());
  ASSERT_GT(eval.memo().size(), 0);
  // Point entry 0's rule word at a rule the grammar does not have.
  eval.TestOnlyMutableMemo()->TestOnlyCorruptKey(
      0, 0, f.synopsis.lossy().rule_count() + 7);
  ExpectDiagnostic(VerifySigmaMemo(eval.memo(), f.synopsis.lossy(),
                                   eval.registry(), &f.cq.value()),
                   "keys rule");
}

// --- Packed storage ------------------------------------------------------

TEST(VerifyStorageTest, RoundTripHoldsOnRealGrammars) {
  Document doc = GenerateDataset(DatasetId::kDblp, 500, 3);
  Synopsis s = Synopsis::Build(doc, {});
  EXPECT_TRUE(VerifyPackedRoundTrip(s.lossless(), s.names().size()).ok());
  EXPECT_TRUE(VerifyPackedRoundTrip(s.lossy(), s.names().size()).ok());
}

TEST(VerifyStorageTest, CorruptedBytesNeverDecodeToADifferentGrammar) {
  Document doc = SingleTree("<a><b><c/></b><b><c/></b></a>");
  SltGrammar g = BplexCompress(doc);
  std::vector<uint8_t> bytes = EncodePacked(g, doc.names().size());
  // Flip every byte in turn: each decode must either fail cleanly or
  // reproduce a well-formed grammar — never crash, never yield a grammar
  // that fails verification.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> dam = bytes;
    dam[i] ^= 0x24;
    Result<SltGrammar> dec = DecodePacked(dam);
    if (dec.ok()) {
      EXPECT_TRUE(VerifyGrammar(dec.value()).ok())
          << "byte " << i << ": decoder accepted an ill-formed grammar";
    }
  }
}

// --- Zero false positives over real pipelines ----------------------------

TEST(VerifyPipelineTest, NoFalsePositivesAcrossDatasetsAndKappas) {
  const DatasetId kDatasets[] = {DatasetId::kXmark, DatasetId::kDblp,
                                 DatasetId::kCatalog};
  for (DatasetId id : kDatasets) {
    Document doc = GenerateDataset(id, 700, 17);
    for (int32_t kappa : {0, 2, 8}) {
      SynopsisOptions options;
      options.kappa = kappa;
      VerifyReport report = VerifyPipeline(doc, options);
      EXPECT_TRUE(report.ok())
          << "dataset " << static_cast<int>(id) << " kappa " << kappa
          << ":\n"
          << report.ToString();
      EXPECT_EQ(report.entries.size(), 9u);
    }
  }
}

TEST(VerifyPipelineTest, ReportListsEveryLayer) {
  Document doc = SingleTree("<a><b/><c/></a>");
  VerifyReport report = VerifyPipeline(doc, {});
  std::string text = report.ToString();
  for (const char* layer :
       {"xml/document", "xml/roundtrip", "grammar/dag", "grammar/bplex",
        "grammar/streaming", "synopsis", "automaton/kernel",
        "storage/packed", "storage/mapped"}) {
    EXPECT_NE(text.find(layer), std::string::npos) << layer;
  }
  EXPECT_TRUE(report.ok()) << text;
}

}  // namespace
}  // namespace xmlsel
