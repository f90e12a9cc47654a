// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// The central correctness properties of the synopsis (§5.3–5.4):
//  (1) counting over a *lossless* grammar equals the exact count;
//  (2) over a lossy grammar, the lower/upper modes bracket the exact
//      count — the paper's guarantee;
//  (3) the bounds tighten monotonically in spirit: κ = 0 is exact.

#include <gtest/gtest.h>

#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "grammar/bplex.h"
#include "grammar/lossy.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace xmlsel {
namespace {

struct Bounds {
  int64_t lower;
  int64_t upper;
};

/// Mirrors the estimator facade: strict (dedup) evaluation is the lower
/// bound; kUpper (no-dedup + star over-approximation) over the
/// order-relaxed query is the upper bound.
Bounds EvalBounds(const SltGrammar& g, const Query& q,
                  const LabelMaps* maps) {
  Result<CompiledQuery> cq = CompiledQuery::Compile(q);
  XMLSEL_CHECK(cq.ok());
  SynopsisEvalCache rules = SynopsisEvalCache::Build(&g, maps);
  GrammarEvaluator lo(&rules, &cq.value(), maps, BoundMode::kLower);
  Query upper_q = HasOrderAxes(q) ? RelaxOrderConstraints(q) : q;
  Result<CompiledQuery> ucq = CompiledQuery::Compile(upper_q);
  XMLSEL_CHECK(ucq.ok());
  GrammarEvaluator hi(&rules, &ucq.value(), maps, BoundMode::kUpper);
  Bounds b{lo.Evaluate().count, hi.Evaluate().count};
  if (b.upper < b.lower) b.upper = b.lower;
  return b;
}

TEST(GrammarEvalTest, LosslessEqualsExactOnHandQueries) {
  auto r = ParseXml(
      "<site><people><person><name/><age/></person>"
      "<person><name/></person></people>"
      "<items><item><name/></item><item><name/></item>"
      "<item><name/></item></items></site>");
  ASSERT_TRUE(r.ok());
  Document doc = std::move(r).value();
  SltGrammar g = BplexCompress(doc);
  ExactEvaluator oracle(doc);
  for (const char* xpath :
       {"//name", "//person/name", "//item", "//person[./age]",
        "//people//name", "/site/items/item/name", "//person[./age]/name"}) {
    Result<Query> q = ParseQuery(xpath, &doc.names());
    ASSERT_TRUE(q.ok()) << xpath;
    Bounds b = EvalBounds(g, q.value(), nullptr);
    int64_t exact = oracle.Count(q.value());
    EXPECT_EQ(b.lower, exact) << xpath;
    EXPECT_EQ(b.upper, exact) << xpath;
  }
}

/// Property: lossless grammar evaluation is exact, for random documents
/// and random queries over all forward axes.
class LosslessExactTest : public ::testing::TestWithParam<int> {};

TEST_P(LosslessExactTest, GrammarCountEqualsExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  int64_t order_free = 0;
  int64_t order_free_exact = 0;
  int64_t order_free_lower_exact = 0;
  for (int iter = 0; iter < 8; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 60, 3, 0.5);
    SltGrammar g = BplexCompress(doc);
    ExactEvaluator oracle(doc);
    for (int k = 0; k < 8; ++k) {
      Query q = testing_util::RandomQuery(&rng, doc, 6, true);
      int64_t exact = oracle.Count(q);
      Bounds b = EvalBounds(g, q, nullptr);
      // Hard guarantee: the bounds always bracket, even on a lossless
      // grammar (order axes and deep re-embedding chains are tracked
      // conservatively; see counting.h).
      ASSERT_LE(b.lower, exact) << q.ToString(doc.names());
      ASSERT_GE(b.upper, exact) << q.ToString(doc.names());
      if (!HasOrderAxes(q)) {
        ++order_free;
        if (b.lower == exact) ++order_free_lower_exact;
        if (b.lower == exact && b.upper == exact) ++order_free_exact;
      }
    }
  }
  // On a lossless grammar the strict count is exact for nearly all
  // order-free queries (the residue is the rare wildcard re-embedding
  // corner where count restoration is conservative), and the whole range
  // collapses for the majority even on these adversarial 3-label
  // recursive documents (real XML collapses almost always).
  EXPECT_GE(order_free_lower_exact * 10, order_free * 9)
      << order_free_lower_exact << "/" << order_free;
  EXPECT_GE(order_free_exact * 2, order_free)
      << order_free_exact << "/" << order_free;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LosslessExactTest, ::testing::Range(1, 11));

/// Property: lossy bounds bracket the exact count — the paper's central
/// guarantee — across κ values, with and without label-map pruning.
class LossyBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(LossyBoundsTest, BoundsBracketExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7907);
  for (int iter = 0; iter < 5; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 80, 3, 0.5);
    SltGrammar lossless = BplexCompress(doc);
    LabelMaps maps = ComputeLabelMaps(doc);
    ExactEvaluator oracle(doc);
    for (int32_t kappa : {1, 3, 8, 1000}) {
      LossyGrammar lossy = MakeLossy(lossless, kappa);
      for (int k = 0; k < 6; ++k) {
        Query q = testing_util::RandomQuery(&rng, doc, 5, true);
        int64_t exact = oracle.Count(q);
        Bounds pruned = EvalBounds(lossy.grammar, q, &maps);
        ASSERT_LE(pruned.lower, exact)
            << "κ=" << kappa << " " << q.ToString(doc.names());
        ASSERT_GE(pruned.upper, exact)
            << "κ=" << kappa << " " << q.ToString(doc.names());
        Bounds unpruned = EvalBounds(lossy.grammar, q, nullptr);
        ASSERT_LE(unpruned.lower, exact) << q.ToString(doc.names());
        ASSERT_GE(unpruned.upper, exact) << q.ToString(doc.names());
        // Pruning can only tighten the upper bound.
        EXPECT_LE(pruned.upper, unpruned.upper) << q.ToString(doc.names());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyBoundsTest, ::testing::Range(1, 11));

TEST(LossyGrammarTest, DeletesRequestedNumberOfProductions) {
  Document doc = GenerateDataset(DatasetId::kCatalog, 1500, 17);
  SltGrammar lossless = BplexCompress(doc);
  int32_t deletable = lossless.rule_count() - 1;
  LossyGrammar a = MakeLossy(lossless, 3);
  EXPECT_EQ(a.deleted, std::min(3, deletable));
  EXPECT_TRUE(a.grammar.IsLossy());
  LossyGrammar all = MakeLossy(lossless, 1 << 20);
  // Deleting a rule can strand other rules (their only occurrences were
  // inside the deleted pattern); those are dropped without counting.
  EXPECT_LE(all.deleted, deletable);
  EXPECT_GE(all.deleted, deletable / 2);
  EXPECT_EQ(all.grammar.rule_count(), 1);  // only the start rule remains
  // Smaller grammars for larger κ.
  EXPECT_LE(all.grammar.NodeCount(), a.grammar.NodeCount());
}

TEST(LossyGrammarTest, StarStatsAreDeduplicated) {
  Document doc;
  NodeId root = doc.AppendChild(doc.virtual_root(), "r");
  for (int i = 0; i < 64; ++i) {
    NodeId a = doc.AppendChild(root, "a");
    doc.AppendChild(a, "x");
  }
  SltGrammar lossless = BplexCompress(doc);
  LossyGrammar lossy = MakeLossy(lossless, 1 << 20);
  // Many stars, few distinct (h, s) pairs (§7's lookup table).
  EXPECT_LE(lossy.grammar.star_stats().size(), 8u);
}

TEST(GrammarEvalTest, LossyOnDatasetsBracketsExact) {
  for (DatasetId id : {DatasetId::kXmark, DatasetId::kDblp}) {
    Document doc = GenerateDataset(id, 3000, 23);
    SltGrammar lossless = BplexCompress(doc);
    LabelMaps maps = ComputeLabelMaps(doc);
    LossyGrammar lossy = MakeLossy(lossless, lossless.rule_count() / 3);
    ExactEvaluator oracle(doc);
    Rng rng(5);
    for (int k = 0; k < 10; ++k) {
      Query q = testing_util::RandomQuery(&rng, doc, 5, false);
      int64_t exact = oracle.Count(q);
      Bounds b = EvalBounds(lossy.grammar, q, &maps);
      ASSERT_LE(b.lower, exact)
          << DatasetName(id) << " " << q.ToString(doc.names());
      ASSERT_GE(b.upper, exact)
          << DatasetName(id) << " " << q.ToString(doc.names());
    }
  }
}

TEST(GrammarEvalTest, SigmaMemoizationIsExercised) {
  Document doc = GenerateDataset(DatasetId::kCatalog, 2000, 3);
  SltGrammar g = BplexCompress(doc);
  Result<Query> q = ParseQuery("//item[./price]//name", &doc.names());
  ASSERT_TRUE(q.ok());
  Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
  ASSERT_TRUE(cq.ok());
  SynopsisEvalCache rules = SynopsisEvalCache::Build(&g, nullptr);
  GrammarEvaluator eval(&rules, &cq.value(), nullptr, BoundMode::kLower);
  GrammarEvalResult res = eval.Evaluate();
  // Lazy σ: far fewer evaluations than rules × all state combinations.
  EXPECT_GT(res.sigma_entries, 0);
  EXPECT_LE(res.sigma_entries, 4 * g.rule_count());
}

}  // namespace
}  // namespace xmlsel
