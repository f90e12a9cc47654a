// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Query-independent precomputation shared by every evaluation over one
// synopsis. GrammarEvaluator's inner loop needs (a) the post-order of each
// rule's RHS and (b) the star-root label sets derived from the grammar and
// the label maps. Neither depends on the query, so a SynopsisEvalCache is
// built once per (grammar, maps) pair and then shared read-only across
// any number of concurrent evaluator threads.
//
// The evaluator consumes rules only through the RuleProvider interface,
// in a *flat* form (RuleEvalData): node records plus contiguous
// child/post-order/star-root arrays, all exposed as spans. The flat form
// is the common currency of both providers — the eager SynopsisEvalCache
// flattens in-memory GrammarRules, the mapped decode cache
// (storage/mapped.h) fills its slots straight from a rule's bit-stream
// (storage/packed_cursor.h) without ever materializing a GrammarRule.
// Because the node ids, walk order, and star-root sets are identical
// across providers, the evaluator's kernel-counter traces are
// bit-identical no matter where the rules came from. A bare grammar is
// evaluated through SynopsisEvalCache::Build(&grammar, maps).

#ifndef XMLSEL_AUTOMATON_EVAL_CACHE_H_
#define XMLSEL_AUTOMATON_EVAL_CACHE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "xmlsel/status.h"

namespace xmlsel {

/// One RHS node in flat form. `sym` carries the same payload as
/// GrammarNode::sym (label / star-stats index / callee / param index);
/// children live in the owning rule's contiguous child array at
/// [child_begin, child_begin + child_count), ⊥ slots as kNullNode.
struct RuleNodeView {
  GrammarNode::Kind kind = GrammarNode::Kind::kTerminal;
  int32_t sym = 0;
  int32_t child_begin = 0;
  int32_t child_count = 0;
};

/// Everything the evaluator needs about one rule, as spans into storage
/// owned by the provider that handed it out (stable for the provider's
/// lifetime). `valid == false` signals a provider failure (a lazily
/// decoded rule that turned out to be corrupt) — consult
/// RuleProvider::error() for the diagnostic.
struct RuleEvalData {
  bool valid = false;
  int32_t rank = 0;
  int32_t root = kNullNode;
  std::span<const RuleNodeView> nodes;
  std::span<const int32_t> children;    ///< all nodes' child ids, packed
  std::span<const int32_t> post_order;  ///< RHS node ids, children first
  /// Star-root directory: empty = every star unrestricted (no maps);
  /// otherwise nodes.size() + 1 offsets into `star_root_labels`.
  std::span<const int32_t> star_root_begin;
  std::span<const LabelId> star_root_labels;

  std::span<const int32_t> children_of(int32_t id) const {
    const RuleNodeView& n = nodes[static_cast<size_t>(id)];
    return children.subspan(static_cast<size_t>(n.child_begin),
                            static_cast<size_t>(n.child_count));
  }
  /// Root label set of star node `id`; empty = unrestricted, {-1} = no
  /// label possible (see ComputeFlatStarRoots).
  std::span<const LabelId> star_roots_of(int32_t id) const {
    if (star_root_begin.empty()) return {};
    const size_t i = static_cast<size_t>(id);
    return star_root_labels.subspan(
        static_cast<size_t>(star_root_begin[i]),
        static_cast<size_t>(star_root_begin[i + 1] - star_root_begin[i]));
  }
};

/// Owning storage behind one rule's RuleEvalData. Clear() keeps the
/// vectors' capacity so a pooled instance can be refilled without
/// reallocating (the packed cursor and the decode cache both reuse these).
struct FlatRuleData {
  int32_t rank = 0;
  int32_t root = kNullNode;
  std::vector<RuleNodeView> nodes;
  std::vector<int32_t> children;
  std::vector<int32_t> post_order;
  std::vector<int32_t> star_root_begin;
  std::vector<LabelId> star_root_labels;

  void Clear() {
    rank = 0;
    root = kNullNode;
    nodes.clear();
    children.clear();
    post_order.clear();
    star_root_begin.clear();
    star_root_labels.clear();
  }

  RuleEvalData View() const {
    RuleEvalData d;
    d.valid = true;
    d.rank = rank;
    d.root = root;
    d.nodes = nodes;
    d.children = children;
    d.post_order = post_order;
    d.star_root_begin = star_root_begin;
    d.star_root_labels = star_root_labels;
    return d;
  }

  /// Exact heap footprint of the owned arrays: every vector charged at
  /// its *capacity* (what the allocator actually handed out), not its
  /// size. The budget accounting in storage/mapped.h relies on this.
  int64_t HeapBytes() const {
    return static_cast<int64_t>(nodes.capacity() * sizeof(RuleNodeView) +
                                children.capacity() * sizeof(int32_t) +
                                post_order.capacity() * sizeof(int32_t) +
                                star_root_begin.capacity() * sizeof(int32_t) +
                                star_root_labels.capacity() * sizeof(LabelId));
  }
};

/// Appends the post-order (children before parents) of the flat
/// structure rooted at `root` to `*out` (⊥ children skipped). Used by
/// both the flattener below and the packed cursor so every provider
/// serves an identical walk order.
void AppendFlatPostOrder(std::span<const RuleNodeView> nodes,
                         std::span<const int32_t> children, int32_t root,
                         std::vector<int32_t>* out);

/// Fills the star-root directory (`begin` gets nodes.size() + 1 offsets
/// into `labels`): the root label set of every star node, derived from
/// the label of the terminal it hangs under. Non-star positions get
/// empty sets. The sentinel {-1} marks a star whose position admits no
/// label at all according to the maps (distinct from the empty set,
/// which the upper bound reads as "unrestricted"). `maps == nullptr`
/// leaves both outputs empty (all stars unrestricted).
void ComputeFlatStarRoots(std::span<const RuleNodeView> nodes,
                          std::span<const int32_t> children,
                          const LabelMaps* maps, std::vector<int32_t>* begin,
                          std::vector<LabelId>* labels);

/// Flattens one in-memory rule into the evaluator's flat form, preserving
/// node ids. The result is identical to what the packed cursor emits for
/// the same rule's bit-stream (verify/mapped_verify.cc checks this
/// identity rule by rule).
void FlattenRule(const GrammarRule& rule, const LabelMaps* maps,
                 FlatRuleData* out);

/// Source of rules for a GrammarEvaluator. Implementations must tolerate
/// concurrent Rule() calls from any number of evaluator threads and hand
/// out address-stable data.
class RuleProvider {
 public:
  virtual ~RuleProvider() = default;

  virtual int32_t rule_count() const = 0;
  /// Star (h, s) lookup table shared by all rules.
  virtual std::span<const StarStats> star_stats() const = 0;
  /// The rule in flat form. A failure (lazy decode of corrupt bytes)
  /// returns `valid == false`.
  virtual RuleEvalData Rule(int32_t rule) const = 0;
  /// Diagnostic for the most recent Rule() failure; OK when none occurred.
  virtual Status error() const { return Status::OK(); }

  int32_t start_rule() const { return rule_count() - 1; }
};

/// Immutable per-synopsis cache — the eager RuleProvider. After Build
/// returns, the cache is safe for unsynchronized concurrent reads; it
/// holds a non-owning pointer to the grammar it was derived from, so it
/// must be rebuilt (not reused) when the grammar moves or when the
/// grammar or the maps change.
class SynopsisEvalCache : public RuleProvider {
 public:
  static SynopsisEvalCache Build(const SltGrammar* grammar,
                                 const LabelMaps* maps);

  int32_t rule_count() const override { return grammar_->rule_count(); }
  std::span<const StarStats> star_stats() const override {
    return grammar_->star_stats();
  }
  RuleEvalData Rule(int32_t rule) const override {
    return rules_[static_cast<size_t>(rule)].View();
  }

 private:
  const SltGrammar* grammar_ = nullptr;
  std::vector<FlatRuleData> rules_;
};

}  // namespace xmlsel

#endif  // XMLSEL_AUTOMATON_EVAL_CACHE_H_
