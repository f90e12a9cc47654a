// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// The central correctness properties of the synopsis (§5.3–5.4):
//  (1) counting over a *lossless* grammar equals the exact count;
//  (2) over a lossy grammar, the lower/upper modes bracket the exact
//      count — the paper's guarantee;
//  (3) the bounds tighten monotonically in spirit: κ = 0 is exact;
//  (4) the evaluator's operand stack survives adversarial rule shapes and
//      a provider failure mid-walk, and a failed evaluation can be
//      retried on the same evaluator.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "estimator/synopsis.h"
#include "grammar/bplex.h"
#include "grammar/dag.h"
#include "grammar/lossy.h"
#include "query/parser.h"
#include "storage/mapped.h"
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

// --------------------------------------------------------------------
// Operand-stack shapes and mid-walk aborts

/// The kernel counters that follow the walk and intern order; two
/// evaluations with equal traces visited the same σ keys and states in
/// the same order.
void ExpectSameTrace(const GrammarEvalResult& a, const GrammarEvalResult& b,
                     const std::string& where) {
  EXPECT_EQ(a.accepted, b.accepted) << where;
  EXPECT_EQ(a.count, b.count) << where;
  EXPECT_EQ(a.sigma_entries, b.sigma_entries) << where;
  EXPECT_EQ(a.distinct_states, b.distinct_states) << where;
  EXPECT_EQ(a.memo_probes, b.memo_probes) << where;
  EXPECT_EQ(a.memo_hits, b.memo_hits) << where;
  EXPECT_EQ(a.intern_probes, b.intern_probes) << where;
  EXPECT_EQ(a.intern_hits, b.intern_hits) << where;
  EXPECT_EQ(a.pool_pairs, b.pool_pairs) << where;
  EXPECT_EQ(a.arena_bytes, b.arena_bytes) << where;
}

/// 2 000 elements, each the first child of the previous one.
Document LeftDeepChain() {
  Document doc;
  NodeId parent = doc.virtual_root();
  const char* kLabels[] = {"a", "b", "c"};
  for (int i = 0; i < 2000; ++i) {
    parent = doc.AppendChild(parent, kLabels[i % 3]);
  }
  return doc;
}

/// One root with 2 000 children, each with a leaf child of its own: in
/// the binary encoding every child's subtree is a finished operand while
/// its next sibling is evaluated.
Document WideNode() {
  Document doc;
  NodeId root = doc.AppendChild(doc.virtual_root(), "r");
  const char* kLabels[] = {"a", "b", "c", "a", "a"};
  for (int i = 0; i < 2000; ++i) {
    NodeId child = doc.AppendChild(root, kLabels[i % 5]);
    doc.AppendChild(child, i % 7 == 0 ? "c" : "b");
  }
  return doc;
}

/// ~2 000 elements, all labelled `a`.
Document SingleLabel() {
  Rng rng(31);
  return testing_util::RandomDocument(&rng, 2000, 1, 0.5);
}

std::shared_ptr<const MappedSynopsis> OpenImage(const Synopsis& s) {
  Result<std::unique_ptr<MappedSynopsis>> image =
      MappedSynopsis::FromBuffer(BuildMappedImage(s), MappedOpenOptions{});
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::shared_ptr<const MappedSynopsis>(std::move(image).value());
}

TEST(OperandStackTest, AdversarialShapesAtEveryKappa) {
  struct Shape {
    const char* name;
    Document doc;
    std::vector<const char*> queries;
  };
  Shape shapes[] = {
      {"left-deep chain", LeftDeepChain(),
       {"//a", "//a/b", "//a//c", "//b[./c]//a", "//a/b/c/a", "//*"}},
      {"wide node", WideNode(),
       {"//a", "/r/a/b", "//r[./c]//b", "//a[./c]", "//*/b", "//r//*"}},
      {"single label", SingleLabel(),
       {"//a", "//a/a", "//a//a", "//a[./a]/a", "/a/a/a", "//*"}},
  };
  for (Shape& shape : shapes) {
    ExactEvaluator oracle(shape.doc);
    // Unshared: one rule whose RHS is the whole binary tree, so the wide
    // node's 2 000 finished first-child subtrees are all on the operand
    // stack at once.
    SltGrammar unshared = BuildDagGrammar(shape.doc, 1 << 30);
    ASSERT_EQ(unshared.rule_count(), 1) << shape.name;
    LabelMaps maps = ComputeLabelMaps(shape.doc);
    for (const char* xpath : shape.queries) {
      Result<Query> q = ParseQuery(xpath, &shape.doc.names());
      ASSERT_TRUE(q.ok()) << xpath;
      const int64_t exact = oracle.Count(q.value());
      Bounds b = EvalBounds(unshared, q.value(), &maps);
      EXPECT_EQ(b.lower, exact) << shape.name << " unshared " << xpath;
      EXPECT_GE(b.upper, exact) << shape.name << " unshared " << xpath;
    }
    const int32_t lossless_rules =
        Synopsis::Build(shape.doc, SynopsisOptions{}).lossless().rule_count();
    for (int32_t kappa : {0, lossless_rules / 2, lossless_rules}) {
      SynopsisOptions options;
      options.kappa = kappa;
      Synopsis synopsis = Synopsis::Build(shape.doc, options);
      std::shared_ptr<const MappedSynopsis> image = OpenImage(synopsis);
      NameTable names = synopsis.names();
      CompiledQueryCache compile_cache;
      for (const char* xpath : shape.queries) {
        const std::string where = std::string(shape.name) + " κ=" +
                                  std::to_string(kappa) + " " + xpath;
        Result<Query> q = ParseQuery(xpath, &names);
        ASSERT_TRUE(q.ok()) << where;
        const int64_t exact = oracle.Count(q.value());
        Result<std::shared_ptr<const PreparedQuery>> prepared =
            compile_cache.Prepare(q.value());
        ASSERT_TRUE(prepared.ok()) << where;
        ASSERT_FALSE(prepared.value()->unsatisfiable) << where;
        int64_t bound[2] = {0, 0};
        for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
          const CompiledQuery& cq = mode == BoundMode::kLower
                                        ? prepared.value()->lower
                                        : UpperQueryOf(*prepared.value());
          GrammarEvaluator eager(&synopsis.eval_cache(), &cq,
                                 &synopsis.label_maps(), mode);
          GrammarEvaluator mapped(&image->serving_provider(), &cq,
                                  &image->label_maps(), mode);
          GrammarEvalResult a = eager.Evaluate();
          GrammarEvalResult b = mapped.Evaluate();
          ASSERT_TRUE(a.status.ok()) << where;
          ASSERT_TRUE(b.status.ok()) << where << " " << b.status.ToString();
          ExpectSameTrace(a, b, where);
          bound[mode == BoundMode::kLower ? 0 : 1] = a.count;
        }
        // On the lossless grammar the strict count is the exact one; the
        // upper bound still only brackets (on recursive single-label
        // documents, order-free re-embedding is tracked conservatively).
        if (kappa == 0) {
          EXPECT_EQ(bound[0], exact) << where;
        } else {
          EXPECT_LE(bound[0], exact) << where;
        }
        EXPECT_GE(bound[1], exact) << where;
      }
    }
  }
}

/// Test-only provider that fails its k-th Rule() call (1-based) until
/// healed, as a lazily decoded corrupt rule would.
class FailingProvider : public RuleProvider {
 public:
  explicit FailingProvider(const RuleProvider* inner) : inner_(inner) {}

  int32_t rule_count() const override { return inner_->rule_count(); }
  std::span<const StarStats> star_stats() const override {
    return inner_->star_stats();
  }
  RuleEvalData Rule(int32_t rule) const override {
    if (++calls_ == fail_at_) {
      failed_ = true;
      return RuleEvalData{};
    }
    return inner_->Rule(rule);
  }
  Status error() const override {
    return failed_ ? Status::Corruption("injected rule failure")
                   : Status::OK();
  }

  void FailAt(int64_t k) {
    fail_at_ = k;
    calls_ = 0;
    failed_ = false;
  }
  void Heal() {
    fail_at_ = -1;
    failed_ = false;
  }

 private:
  const RuleProvider* inner_;
  mutable int64_t calls_ = 0;
  mutable bool failed_ = false;
  int64_t fail_at_ = -1;
};

TEST(OperandStackTest, AbortMidWalkThenRetryOnTheSameEvaluator) {
  Document doc = GenerateDataset(DatasetId::kXmark, 3000, 5);
  const int32_t lossless_rules =
      Synopsis::Build(doc, SynopsisOptions{}).lossless().rule_count();
  SynopsisOptions options;
  options.kappa = lossless_rules / 3;  // stars on the walk too
  Synopsis synopsis = Synopsis::Build(doc, options);
  NameTable names = synopsis.names();
  CompiledQueryCache compile_cache;
  for (const char* xpath : {"//item[./mailbox]//keyword", "//person//name"}) {
    Result<Query> q = ParseQuery(xpath, &names);
    ASSERT_TRUE(q.ok()) << xpath;
    Result<std::shared_ptr<const PreparedQuery>> prepared =
        compile_cache.Prepare(q.value());
    ASSERT_TRUE(prepared.ok()) << xpath;
    for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
      const CompiledQuery& cq = mode == BoundMode::kLower
                                    ? prepared.value()->lower
                                    : UpperQueryOf(*prepared.value());
      GrammarEvaluator fresh_eval(&synopsis.eval_cache(), &cq,
                                  &synopsis.label_maps(), mode);
      const GrammarEvalResult fresh = fresh_eval.Evaluate();
      ASSERT_TRUE(fresh.status.ok());
      // One Rule() call per σ entry: sweeping k over all of them fails the
      // walk at every suspension point, most with a caller's operands
      // (and whole suspended tasks) left on the operand stack.
      ASSERT_GT(fresh.sigma_entries, 2) << xpath;
      FailingProvider provider(&synopsis.eval_cache());
      for (int64_t k = 1; k <= fresh.sigma_entries; ++k) {
        const std::string where = std::string(xpath) + " mode " +
                                  std::to_string(static_cast<int>(mode)) +
                                  " k=" + std::to_string(k);
        provider.FailAt(k);
        GrammarEvaluator eval(&provider, &cq, &synopsis.label_maps(), mode);
        const GrammarEvalResult failed = eval.Evaluate();
        ASSERT_FALSE(failed.status.ok()) << where;
        EXPECT_EQ(failed.status.ToString(),
                  Status::Corruption("injected rule failure").ToString())
            << where;
        provider.Heal();
        const GrammarEvalResult retry = eval.Evaluate();
        ASSERT_TRUE(retry.status.ok()) << where;
        // The retry answers as a fresh evaluator does and ends in the
        // same state space: same states, in the same intern order.
        EXPECT_EQ(retry.accepted, fresh.accepted) << where;
        EXPECT_EQ(retry.count, fresh.count) << where;
        EXPECT_EQ(retry.distinct_states, fresh.distinct_states) << where;
        EXPECT_EQ(retry.pool_pairs, fresh.pool_pairs) << where;
        // σ entries completed before the failure are kept and not redone;
        // together the two runs computed each of the fresh run's entries
        // exactly once.
        EXPECT_EQ(failed.sigma_entries + retry.sigma_entries,
                  fresh.sigma_entries)
            << where;
        ASSERT_EQ(eval.memo().size(), fresh_eval.memo().size()) << where;
        for (int32_t id = 0; id < eval.memo().size(); ++id) {
          std::span<const int32_t> got = eval.memo().key(id);
          std::span<const int32_t> want = fresh_eval.memo().key(id);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                 want.end()))
              << where << " memo key " << id;
          ASSERT_TRUE(eval.memo().sigma(id).ready) << where;
          EXPECT_EQ(eval.memo().sigma(id).state,
                    fresh_eval.memo().sigma(id).state)
              << where;
          EXPECT_EQ(eval.memo().sigma(id).counts,
                    fresh_eval.memo().sigma(id).counts)
              << where;
        }
        // And the retried evaluator is now simply warm.
        const GrammarEvalResult warm = eval.Evaluate();
        EXPECT_EQ(warm.sigma_entries, 0) << where;
        EXPECT_EQ(warm.count, fresh.count) << where;
      }
    }
  }
}

}  // namespace
}  // namespace xmlsel
