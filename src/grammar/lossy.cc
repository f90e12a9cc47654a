// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "grammar/lossy.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "grammar/analysis.h"
#include "grammar/bplex.h"

namespace xmlsel {

namespace {

/// Per-call indices over a normalized grammar (every arena node live),
/// in CSR form: rule i's entries are [begin[i], begin[i + 1]).
struct CallIndex {
  /// Distinct callees of each rule: (callee, occurrence count).
  std::vector<int32_t> callee_begin;
  std::vector<std::pair<int32_t, int64_t>> callee;
  /// Call sites of each rule: (caller rule, node id) of every occurrence.
  std::vector<int32_t> site_begin;
  std::vector<std::pair<int32_t, int32_t>> site;
};

CallIndex BuildCallIndex(const SltGrammar& g) {
  const size_t n = static_cast<size_t>(g.rule_count());
  CallIndex ix;
  ix.callee_begin.assign(n + 1, 0);
  ix.site_begin.assign(n + 1, 0);
  // slot[j]: position of callee j in the current caller's list, or -1.
  std::vector<int32_t> slot(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const size_t first = ix.callee.size();
    for (const GrammarNode& nd : g.rule(static_cast<int32_t>(i)).nodes) {
      if (nd.kind != GrammarNode::Kind::kNonterminal) continue;
      const size_t j = static_cast<size_t>(nd.sym);
      ++ix.site_begin[j + 1];
      if (slot[j] < 0) {
        slot[j] = static_cast<int32_t>(ix.callee.size());
        ix.callee.push_back({nd.sym, 0});
      }
      ++ix.callee[static_cast<size_t>(slot[j])].second;
    }
    for (size_t k = first; k < ix.callee.size(); ++k) {
      slot[static_cast<size_t>(ix.callee[k].first)] = -1;
    }
    ix.callee_begin[i + 1] = static_cast<int32_t>(ix.callee.size());
  }
  for (size_t j = 0; j < n; ++j) ix.site_begin[j + 1] += ix.site_begin[j];
  ix.site.resize(static_cast<size_t>(ix.site_begin[n]));
  std::vector<int32_t> fill(ix.site_begin.begin(), ix.site_begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const GrammarRule& r = g.rule(static_cast<int32_t>(i));
    for (size_t id = 0; id < r.nodes.size(); ++id) {
      const GrammarNode& nd = r.nodes[id];
      if (nd.kind != GrammarNode::Kind::kNonterminal) continue;
      ix.site[static_cast<size_t>(fill[static_cast<size_t>(nd.sym)]++)] = {
          static_cast<int32_t>(i), static_cast<int32_t>(id)};
    }
  }
  return ix;
}

}  // namespace

LossyGrammar MakeLossy(const SltGrammar& lossless, int32_t kappa) {
  XMLSEL_CHECK(!lossless.IsLossy());
  LossyGrammar out;
  out.grammar = NormalizedCopy(lossless);
  SltGrammar& g = out.grammar;
  if (g.rule_count() == 0) return out;

  // Height/size of each pattern come from the *lossless* analysis; rule
  // indices are stable during deletion (rules become unreachable in place
  // and are dropped by the final NormalizedCopy), so the arrays stay
  // aligned.
  GrammarAnalysis base = AnalyzeGrammar(g);
  {  // The indices are freed before the final copy.
    const CallIndex ix = BuildCallIndex(g);
    // mult[i] is A_i's multiplicity in the current (partially starred)
    // grammar: Σ mult[caller] · occurrences over unstarred callers.
    // Starring only removes occurrences, so it never grows.
    std::vector<int64_t> mult = std::move(base.multiplicity);
    std::vector<int64_t> delta(mult.size(), 0);
    std::vector<bool> starred(mult.size(), false);
    // Min-heap on (multiplicity, rule index) with lazy invalidation: an
    // entry is live iff it carries the rule's current count (entries are
    // > 0; starred and unreachable rules are at 0). Counts only fall, so
    // the first live entry popped is the lowest current multiplicity,
    // ties to the lowest index. The start rule never enters.
    using Entry = std::pair<int64_t, int32_t>;
    std::vector<Entry> heap_init;
    for (int32_t i = 0; i < g.start_rule(); ++i) {
      if (mult[static_cast<size_t>(i)] > 0) {
        heap_init.push_back({mult[static_cast<size_t>(i)], i});
      }
    }
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap(
        std::greater<Entry>(), std::move(heap_init));
    // Rules whose count a deletion lowers, visited in descending index
    // order (callees always have lower indices than their callers).
    std::priority_queue<int32_t> pending;

    while (out.deleted < kappa) {
      int32_t victim = -1;
      while (!heap.empty()) {
        auto [m, i] = heap.top();
        heap.pop();
        if (mult[static_cast<size_t>(i)] == m) {
          victim = i;
          break;
        }
      }
      if (victim == -1) break;  // only the start production remains
      const size_t v = static_cast<size_t>(victim);
      StarStats stats{base.gen_height[v], base.gen_size[v]};
      int32_t stats_index = g.InternStarStats(stats);
      const bool append_bottom = !base.rightmost_is_last_param[v];
      // Star every occurrence, live caller or not.
      for (int32_t k = ix.site_begin[v]; k < ix.site_begin[v + 1]; ++k) {
        auto [caller, id] = ix.site[static_cast<size_t>(k)];
        GrammarNode& nd =
            g.mutable_rule(caller).nodes[static_cast<size_t>(id)];
        nd.kind = GrammarNode::Kind::kStar;
        nd.sym = stats_index;
        if (append_bottom) nd.children.push_back(kNullNode);
      }
      starred[v] = true;
      // The victim loses all its occurrences; push the drop down the DAG.
      delta[v] = mult[v];
      pending.push(victim);
      while (!pending.empty()) {
        const size_t x = static_cast<size_t>(pending.top());
        pending.pop();
        const int64_t d = delta[x];
        delta[x] = 0;
        mult[x] -= d;
        XMLSEL_DCHECK(mult[x] >= 0);
        if (x != v && mult[x] > 0) {
          heap.push({mult[x], static_cast<int32_t>(x)});
        }
        for (int32_t k = ix.callee_begin[x]; k < ix.callee_begin[x + 1];
             ++k) {
          auto [callee, count] = ix.callee[static_cast<size_t>(k)];
          const size_t c = static_cast<size_t>(callee);
          if (starred[c]) continue;
          if (delta[c] == 0) pending.push(callee);
          delta[c] += d * count;
        }
      }
      ++out.deleted;
    }
  }
  out.grammar = NormalizedCopy(out.grammar);
  return out;
}

LabelMaps ComputeLabelMaps(const Document& doc) {
  LabelMaps maps;
  maps.label_count = doc.names().size();
  maps.child.assign(static_cast<size_t>(maps.label_count),
                    std::vector<bool>(static_cast<size_t>(maps.label_count),
                                      false));
  maps.parent = maps.child;
  for (NodeId v : doc.SubtreeNodes(doc.virtual_root())) {
    LabelId pl = doc.label(v);
    for (NodeId c = doc.first_child(v); c != kNullNode;
         c = doc.next_sibling(c)) {
      LabelId cl = doc.label(c);
      maps.child[static_cast<size_t>(pl)][static_cast<size_t>(cl)] = true;
      maps.parent[static_cast<size_t>(cl)][static_cast<size_t>(pl)] = true;
    }
  }
  return maps;
}

void MergeLabelMaps(LabelMaps* base, const LabelMaps& other) {
  int32_t n = std::max(base->label_count, other.label_count);
  base->child.resize(static_cast<size_t>(n));
  base->parent.resize(static_cast<size_t>(n));
  for (auto& row : base->child) row.resize(static_cast<size_t>(n), false);
  for (auto& row : base->parent) row.resize(static_cast<size_t>(n), false);
  for (int32_t a = 0; a < other.label_count; ++a) {
    for (int32_t b = 0; b < other.label_count; ++b) {
      if (other.child[static_cast<size_t>(a)][static_cast<size_t>(b)]) {
        base->child[static_cast<size_t>(a)][static_cast<size_t>(b)] = true;
      }
      if (other.parent[static_cast<size_t>(a)][static_cast<size_t>(b)]) {
        base->parent[static_cast<size_t>(a)][static_cast<size_t>(b)] = true;
      }
    }
  }
  base->label_count = n;
}

}  // namespace xmlsel
