// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Tests for SLT grammars: representation, DAG sharing, BPLEX compression
// (expansion must reproduce the document exactly), analysis statistics,
// the paper's §4 worked examples, and κ-lossy construction against the
// literal round-by-round oracle (tests/lossy_oracle.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/generator.h"
#include "estimator/update.h"
#include "grammar/analysis.h"
#include "grammar/bplex.h"
#include "grammar/dag.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "tests/lossy_oracle.h"
#include "tests/test_util.h"
#include "verify/verify.h"
#include "xml/binary_tree.h"
#include "xml/parser.h"

namespace xmlsel {
namespace {

/// The §4.1 example tree c(d(e(u)), c(d(f), c(d(a), a))) as a document.
Document Section41Example() {
  auto r = ParseXml(
      "<c><d><e><u/></e></d><c><d><f/></d><c><d><a/></d><a/></c></c></c>");
  XMLSEL_CHECK(r.ok());
  return std::move(r).value();
}

TEST(SltGrammarTest, HandBuiltGrammarExpands) {
  // A_0(y1,y2) -> c(d(y1, y2), ⊥); A_1 -> A_0(e(u,⊥), A_0(f, A_0(a, a)))
  // — the paper's example grammar (our indices shift by one because ⊥ is
  // a null child, not a rule).
  Document example = Section41Example();
  SltGrammar g;
  {
    GrammarRule r;
    r.rank = 2;
    RhsBuilder b(&r);
    int32_t y1 = b.Param(0);
    int32_t y2 = b.Param(1);
    int32_t d = b.Terminal(example.names().Lookup("d"), y1, y2);
    int32_t c = b.Terminal(example.names().Lookup("c"), d, kNullNode);
    b.SetRoot(c);
    g.AddRule(std::move(r));
  }
  {
    GrammarRule r;
    r.rank = 0;
    RhsBuilder b(&r);
    LabelId la = example.names().Lookup("a");
    int32_t a1 = b.Terminal(la, kNullNode, kNullNode);
    int32_t a2 = b.Terminal(la, kNullNode, kNullNode);
    int32_t inner = b.Nonterminal(0, {a1, a2});
    int32_t f = b.Terminal(example.names().Lookup("f"), kNullNode, kNullNode);
    int32_t mid = b.Nonterminal(0, {f, inner});
    int32_t u = b.Terminal(example.names().Lookup("u"), kNullNode, kNullNode);
    int32_t e = b.Terminal(example.names().Lookup("e"), u, kNullNode);
    int32_t outer = b.Nonterminal(0, {e, mid});
    b.SetRoot(outer);
    g.AddRule(std::move(r));
  }
  g.Validate();
  EXPECT_FALSE(g.IsLossy());
  Document expanded = g.Expand(example.names());
  EXPECT_TRUE(expanded.StructurallyEquals(example));
}

TEST(SltGrammarTest, EdgeAndNodeCounts) {
  SltGrammar g;
  GrammarRule r;
  r.rank = 0;
  RhsBuilder b(&r);
  int32_t leaf = b.Terminal(1, kNullNode, kNullNode);
  b.SetRoot(b.Terminal(1, leaf, kNullNode));
  g.AddRule(std::move(r));
  EXPECT_EQ(g.NodeCount(), 2);
  EXPECT_EQ(g.EdgeCount(), 1);  // ⊥ children are not edges
}

TEST(DagTest, SharesRepeatedSubtrees) {
  Document doc = Section41Example();
  SltGrammar g = BuildDagGrammar(doc);
  // The repeated leaf 'a' must have become a rule.
  EXPECT_GE(g.rule_count(), 2);
  Document expanded = g.Expand(doc.names());
  EXPECT_TRUE(expanded.StructurallyEquals(doc));
}

TEST(DagTest, DagOfRepetitiveDocumentIsSmall) {
  // NOTE: the DAG shares *binary* subtrees, which include sibling tails —
  // so a flat list of identical items shares only its inner subtrees; the
  // cross-sibling repetition is the pattern phase's job (BPLEX).
  Document doc;
  NodeId root = doc.AppendChild(doc.virtual_root(), "r");
  for (int i = 0; i < 200; ++i) {
    NodeId item = doc.AppendChild(root, "item");
    doc.AppendChild(item, "x");
    doc.AppendChild(item, "y");
  }
  SltGrammar dag = BuildDagGrammar(doc);
  EXPECT_LT(dag.NodeCount(), doc.element_count());
  EXPECT_TRUE(dag.Expand(doc.names()).StructurallyEquals(doc));
  SltGrammar g = BplexCompress(doc);
  EXPECT_LT(g.NodeCount(), 100);  // pattern sharing closes the gap
  EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc));
}

TEST(BplexTest, RoundTripsOnPaperExample) {
  Document doc = Section41Example();
  SltGrammar g = BplexCompress(doc);
  g.Validate();
  EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc));
}

TEST(BplexTest, CompressesRepetitiveStructure) {
  Document doc;
  NodeId root = doc.AppendChild(doc.virtual_root(), "r");
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    NodeId item = doc.AppendChild(root, "item");
    doc.AppendChild(item, "a");
    doc.AppendChild(item, "b");
    if (rng.Chance(0.5)) doc.AppendChild(item, "c");
  }
  SltGrammar g = BplexCompress(doc);
  EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc));
  // Compression ratio: the paper reports ~5% of document edges for real
  // XML; this synthetic case is even more repetitive.
  EXPECT_LT(g.EdgeCount(), doc.element_count() / 4);
}

TEST(BplexTest, RespectsMaxRank) {
  Document doc;
  NodeId root = doc.AppendChild(doc.virtual_root(), "r");
  for (int i = 0; i < 50; ++i) {
    NodeId a = doc.AppendChild(root, "a");
    NodeId b = doc.AppendChild(a, "b");
    doc.AppendChild(b, "c");
  }
  BplexOptions opts;
  opts.max_rank = 2;
  SltGrammar g = BplexCompress(doc, opts);
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    EXPECT_LE(g.rule(i).rank, 2);
  }
  EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc));
}

class BplexRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BplexRoundTripTest, RandomDocumentsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 10; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 120, 4, 0.5);
    SltGrammar g = BplexCompress(doc);
    g.Validate();
    EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc))
        << "seed=" << GetParam() << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BplexRoundTripTest,
                         ::testing::Range(1, 9));

TEST(BplexTest, RoundTripsOnDatasets) {
  for (DatasetId id : {DatasetId::kDblp, DatasetId::kXmark,
                       DatasetId::kCatalog}) {
    Document doc = GenerateDataset(id, 2000, 11);
    SltGrammar g = BplexCompress(doc);
    EXPECT_TRUE(g.Expand(doc.names()).StructurallyEquals(doc))
        << DatasetName(id);
    // Real-ish XML must compress well (§4: ~5% of edges).
    EXPECT_LT(g.EdgeCount(), doc.element_count() / 2) << DatasetName(id);
  }
}

TEST(AnalysisTest, MultiplicitySizeHeightOnPaperExample) {
  Document doc = Section41Example();
  SltGrammar g = BuildDagGrammar(doc);
  GrammarAnalysis a = AnalyzeGrammar(g);
  // Start rule is generated exactly once.
  EXPECT_EQ(a.multiplicity[static_cast<size_t>(g.start_rule())], 1);
  // The start rule generates the whole 8-node document.
  EXPECT_EQ(a.gen_size[static_cast<size_t>(g.start_rule())],
            doc.element_count());
  EXPECT_EQ(a.gen_height[static_cast<size_t>(g.start_rule())],
            doc.SubtreeHeight(doc.document_element()));
  // The shared 'a' leaf has multiplicity 2 (the paper's example).
  bool found_mult2_leaf = false;
  for (int32_t i = 0; i < g.start_rule(); ++i) {
    if (a.gen_size[static_cast<size_t>(i)] == 1 &&
        a.multiplicity[static_cast<size_t>(i)] == 2) {
      found_mult2_leaf = true;
    }
  }
  EXPECT_TRUE(found_mult2_leaf);
}

TEST(AnalysisTest, SizeMatchesDocumentOnRandomInputs) {
  Rng rng(5);
  for (int iter = 0; iter < 8; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 150, 3, 0.6);
    SltGrammar g = BplexCompress(doc);
    GrammarAnalysis a = AnalyzeGrammar(g);
    EXPECT_EQ(a.gen_size[static_cast<size_t>(g.start_rule())],
              doc.element_count());
    EXPECT_EQ(a.gen_height[static_cast<size_t>(g.start_rule())],
              doc.SubtreeHeight(doc.document_element()));
  }
}

TEST(NormalizedCopyTest, DropsUnreachableRules) {
  SltGrammar g;
  {
    GrammarRule dead;  // never referenced
    dead.rank = 0;
    RhsBuilder b(&dead);
    b.SetRoot(b.Terminal(1, kNullNode, kNullNode));
    g.AddRule(std::move(dead));
  }
  {
    GrammarRule start;
    start.rank = 0;
    RhsBuilder b(&start);
    b.SetRoot(b.Terminal(2, kNullNode, kNullNode));
    g.AddRule(std::move(start));
  }
  SltGrammar n = NormalizedCopy(g);
  EXPECT_EQ(n.rule_count(), 1);
}

/// MakeLossy must return exactly the oracle's grammar: same rules, same
/// arenas node for node, same star table, same deletion count.
void ExpectSameAsOracle(const SltGrammar& lossless, int32_t kappa) {
  SCOPED_TRACE("kappa " + std::to_string(kappa));
  LossyGrammar got = MakeLossy(lossless, kappa);
  LossyGrammar want = testing_util::MakeLossyOracle(lossless, kappa);
  Status cmp = CompareGrammars(got.grammar, want.grammar);
  ASSERT_TRUE(cmp.ok()) << cmp.ToString();
  EXPECT_EQ(got.grammar.star_stats(), want.grammar.star_stats());
  EXPECT_EQ(got.deleted, want.deleted);
  for (int32_t i = 0; i < want.grammar.rule_count(); ++i) {
    const GrammarRule& a = got.grammar.rule(i);
    const GrammarRule& b = want.grammar.rule(i);
    ASSERT_EQ(a.root, b.root) << "rule " << i;
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "rule " << i;
    for (size_t id = 0; id < a.nodes.size(); ++id) {
      ASSERT_TRUE(a.nodes[id].kind == b.nodes[id].kind &&
                  a.nodes[id].sym == b.nodes[id].sym &&
                  a.nodes[id].children == b.nodes[id].children)
          << "rule " << i << " node " << id;
    }
  }
}

/// κ ∈ {1, 10%, 50%, 90%, rules − 1, unbounded} of the lossless rules.
std::vector<int32_t> KappaSweep(const SltGrammar& lossless) {
  const int32_t rules = lossless.rule_count();
  return {1, rules / 10, rules / 2, rules * 9 / 10, rules - 1, 1 << 20};
}

TEST(LossyOracleTest, MatchesRoundLoopOnDatasets) {
  for (DatasetId id : {DatasetId::kXmark, DatasetId::kDblp,
                       DatasetId::kSwissProt, DatasetId::kPsd,
                       DatasetId::kCatalog}) {
    for (uint64_t seed : {1u, 7u}) {
      SCOPED_TRACE(std::string(DatasetName(id)) + " seed " +
                   std::to_string(seed));
      SltGrammar lossless = BplexCompress(GenerateDataset(id, 4000, seed));
      ASSERT_GT(lossless.rule_count(), 10);
      for (int32_t kappa : KappaSweep(lossless)) {
        ExpectSameAsOracle(lossless, kappa);
      }
    }
  }
}

/// `g` plus what long-lived grammars accumulate: a dead arena node in
/// every rule that calls rule 0, and an unreachable rule that calls the
/// rule below the start rule.
SltGrammar WithDeadParts(const SltGrammar& g) {
  SltGrammar out;
  const int32_t start = g.start_rule();
  const std::vector<int32_t> nulls0(
      static_cast<size_t>(g.rule(0).rank), kNullNode);
  for (int32_t i = 0; i < start; ++i) {
    GrammarRule r = g.rule(i);
    if (i > 0) RhsBuilder(&r).Nonterminal(0, nulls0);
    out.AddRule(std::move(r));
  }
  GrammarRule dead;
  RhsBuilder b(&dead);
  b.SetRoot(b.Nonterminal(
      start - 1, std::vector<int32_t>(
                     static_cast<size_t>(g.rule(start - 1).rank), kNullNode)));
  out.AddRule(std::move(dead));
  out.AddRule(g.rule(start));  // calls only rules below `start`
  return out;
}

TEST(LossyOracleTest, MatchesRoundLoopAfterUpdates) {
  // Grammars after random §6 inserts and deletes, which re-compress the
  // start rule with BPLEX. ApplyUpdateToGrammar returns a normalized
  // grammar, so dead nodes and an unreachable rule are added on top:
  // both constructions must start from the same NormalizedCopy.
  for (uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Document doc = GenerateDataset(DatasetId::kXmark, 1500, seed);
    SltGrammar g = BplexCompress(doc);
    NameTable names = doc.names();
    for (int step = 0; step < 4; ++step) {
      Document current = g.Expand(names);
      std::vector<NodeId> nodes =
          current.SubtreeNodes(current.virtual_root());
      NodeId target = nodes[static_cast<size_t>(
          rng.Uniform(2, static_cast<int64_t>(nodes.size()) - 1))];
      BinddPath path = BinddOf(current, target);
      int64_t kind = rng.Uniform(0, 2);
      UpdateOp op = UpdateOp::Delete(path);
      if (kind != 0) {
        Document tree = testing_util::RandomDocument(&rng, 8, 3, 0.5);
        op = kind == 1 ? UpdateOp::FirstChild(path, std::move(tree))
                       : UpdateOp::NextSibling(path, std::move(tree));
      }
      Status st = ApplyUpdateToGrammar(&g, &names, op, BplexOptions());
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (int32_t kappa : KappaSweep(g)) ExpectSameAsOracle(g, kappa);
    SltGrammar messy = WithDeadParts(g);
    ASSERT_GT(messy.NodeCount(), NormalizedCopy(messy).NodeCount());
    for (int32_t kappa : KappaSweep(messy)) {
      ExpectSameAsOracle(messy, kappa);
    }
  }
}

}  // namespace
}  // namespace xmlsel
