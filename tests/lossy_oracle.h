// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Reference κ-lossy construction for tests: the literal O(κ·|G|) reading
// of §4.2. Every round recomputes all multiplicities over the partially
// starred grammar, picks the lowest (ties to the lowest rule index), and
// scans every node of every rule to star the victim's occurrences.
// MakeLossy (src/grammar/lossy.cc) keeps multiplicities incrementally
// and must return exactly what this loop returns.

#ifndef XMLSEL_TESTS_LOSSY_ORACLE_H_
#define XMLSEL_TESTS_LOSSY_ORACLE_H_

#include <vector>

#include "grammar/analysis.h"
#include "grammar/bplex.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"

namespace xmlsel {
namespace testing_util {

/// Recomputes multiplicities over the current (partially deleted) grammar.
/// Deleted rules are exactly the ones no longer referenced from the start
/// rule, so reachability-based multiplicity handles them for free.
inline std::vector<int64_t> CurrentMultiplicities(const SltGrammar& g) {
  std::vector<int64_t> mult(static_cast<size_t>(g.rule_count()), 0);
  if (g.rule_count() == 0) return mult;
  mult[static_cast<size_t>(g.start_rule())] = 1;
  for (int32_t i = g.rule_count() - 1; i >= 0; --i) {
    int64_t m = mult[static_cast<size_t>(i)];
    if (m == 0) continue;
    const GrammarRule& r = g.rule(i);
    std::vector<int32_t> stack;
    if (r.root != kNullNode) stack.push_back(r.root);
    while (!stack.empty()) {
      int32_t id = stack.back();
      stack.pop_back();
      const GrammarNode& nd = r.nodes[static_cast<size_t>(id)];
      if (nd.kind == GrammarNode::Kind::kNonterminal) {
        mult[static_cast<size_t>(nd.sym)] += m;
      }
      for (int32_t c : nd.children) {
        if (c != kNullNode) stack.push_back(c);
      }
    }
  }
  return mult;
}

/// Replaces every occurrence of rule `victim` in `g` by a star node with
/// statistics index `stats_index`; `append_bottom` adds the trailing ⊥
/// (the "right-most leaf is not y_k" case of §4.2).
inline void ReplaceWithStars(SltGrammar* g, int32_t victim,
                             int32_t stats_index, bool append_bottom) {
  for (int32_t i = 0; i < g->rule_count(); ++i) {
    if (i == victim) continue;
    GrammarRule& r = g->mutable_rule(i);
    for (GrammarNode& nd : r.nodes) {
      if (nd.kind == GrammarNode::Kind::kNonterminal && nd.sym == victim) {
        nd.kind = GrammarNode::Kind::kStar;
        nd.sym = stats_index;
        if (append_bottom) nd.children.push_back(kNullNode);
      }
    }
  }
}

/// The round loop: κ times, recompute, select, star.
inline LossyGrammar MakeLossyOracle(const SltGrammar& lossless,
                                    int32_t kappa) {
  XMLSEL_CHECK(!lossless.IsLossy());
  LossyGrammar out;
  out.grammar = NormalizedCopy(lossless);
  SltGrammar& g = out.grammar;
  if (g.rule_count() == 0) return out;
  GrammarAnalysis base = AnalyzeGrammar(g);
  for (int32_t round = 0; round < kappa; ++round) {
    std::vector<int64_t> mult = CurrentMultiplicities(g);
    int32_t victim = -1;
    int64_t best = 0;
    for (int32_t i = 0; i < g.start_rule(); ++i) {
      if (mult[static_cast<size_t>(i)] <= 0) continue;  // already deleted
      if (victim == -1 || mult[static_cast<size_t>(i)] < best) {
        victim = i;
        best = mult[static_cast<size_t>(i)];
      }
    }
    if (victim == -1) break;  // only the start production remains
    StarStats stats{base.gen_height[static_cast<size_t>(victim)],
                    base.gen_size[static_cast<size_t>(victim)]};
    int32_t stats_index = g.InternStarStats(stats);
    bool rightmost =
        base.rightmost_is_last_param[static_cast<size_t>(victim)];
    ReplaceWithStars(&g, victim, stats_index, /*append_bottom=*/!rightmost);
    ++out.deleted;
  }
  out.grammar = NormalizedCopy(out.grammar);
  return out;
}

}  // namespace testing_util
}  // namespace xmlsel

#endif  // XMLSEL_TESTS_LOSSY_ORACLE_H_
