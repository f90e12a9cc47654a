// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "automaton/eval_cache.h"

namespace xmlsel {

void AppendFlatPostOrder(std::span<const RuleNodeView> nodes,
                         std::span<const int32_t> children, int32_t root,
                         std::vector<int32_t>* out) {
  if (root == kNullNode) return;
  struct Frame {
    int32_t node;
    int32_t next;
  };
  std::vector<Frame> stack = {{root, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const RuleNodeView& n = nodes[static_cast<size_t>(f.node)];
    bool desc = false;
    while (f.next < n.child_count) {
      int32_t c = children[static_cast<size_t>(n.child_begin + f.next++)];
      if (c != kNullNode) {
        stack.push_back({c, 0});
        desc = true;
        break;
      }
    }
    if (desc) continue;
    out->push_back(f.node);
    stack.pop_back();
  }
}

void ComputeFlatStarRoots(std::span<const RuleNodeView> nodes,
                          std::span<const int32_t> children,
                          const LabelMaps* maps, std::vector<int32_t>* begin,
                          std::vector<LabelId>* labels) {
  begin->clear();
  labels->clear();
  if (maps == nullptr) return;
  std::vector<std::vector<LabelId>> roots(nodes.size());
  for (const RuleNodeView& n : nodes) {
    if (n.kind != GrammarNode::Kind::kTerminal) continue;
    LabelId a = n.sym;
    // Star as a first child of an a-element: hidden roots are children
    // of a. Star as a next sibling of an a-element: hidden roots are
    // children of any possible parent of a.
    for (int side = 0; side < 2 && side < n.child_count; ++side) {
      int32_t c = children[static_cast<size_t>(n.child_begin + side)];
      if (c == kNullNode) continue;
      const RuleNodeView& cn = nodes[static_cast<size_t>(c)];
      if (cn.kind != GrammarNode::Kind::kStar) continue;
      std::vector<bool> allowed(static_cast<size_t>(maps->label_count),
                                false);
      if (side == 0) {
        allowed = maps->child[static_cast<size_t>(a)];
      } else {
        for (int32_t p = 0; p < maps->label_count; ++p) {
          if (!maps->parent[static_cast<size_t>(a)][static_cast<size_t>(p)])
            continue;
          for (int32_t b = 0; b < maps->label_count; ++b) {
            if (maps->child[static_cast<size_t>(p)][static_cast<size_t>(b)])
              allowed[static_cast<size_t>(b)] = true;
          }
        }
      }
      std::vector<LabelId>& out = roots[static_cast<size_t>(c)];
      for (int32_t b = 0; b < maps->label_count; ++b) {
        if (allowed[static_cast<size_t>(b)]) out.push_back(b);
      }
      if (out.empty()) out.push_back(-1);  // no label possible here
    }
  }
  begin->reserve(nodes.size() + 1);
  begin->push_back(0);
  for (const std::vector<LabelId>& r : roots) {
    labels->insert(labels->end(), r.begin(), r.end());
    begin->push_back(static_cast<int32_t>(labels->size()));
  }
}

void FlattenRule(const GrammarRule& rule, const LabelMaps* maps,
                 FlatRuleData* out) {
  out->Clear();
  out->rank = rule.rank;
  out->root = rule.root;
  out->nodes.reserve(rule.nodes.size());
  for (const GrammarNode& n : rule.nodes) {
    RuleNodeView v;
    v.kind = n.kind;
    v.sym = n.sym;
    v.child_begin = static_cast<int32_t>(out->children.size());
    v.child_count = static_cast<int32_t>(n.children.size());
    out->children.insert(out->children.end(), n.children.begin(),
                         n.children.end());
    out->nodes.push_back(v);
  }
  AppendFlatPostOrder(out->nodes, out->children, out->root, &out->post_order);
  ComputeFlatStarRoots(out->nodes, out->children, maps,
                       &out->star_root_begin, &out->star_root_labels);
}

SynopsisEvalCache SynopsisEvalCache::Build(const SltGrammar* grammar,
                                           const LabelMaps* maps) {
  SynopsisEvalCache cache;
  cache.grammar_ = grammar;
  int32_t rules = grammar->rule_count();
  cache.rules_.resize(static_cast<size_t>(rules));
  for (int32_t i = 0; i < rules; ++i) {
    FlattenRule(grammar->rule(i), maps, &cache.rules_[static_cast<size_t>(i)]);
  }
  return cache;
}

}  // namespace xmlsel
