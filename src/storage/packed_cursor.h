// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// The §7 rule decoder. Every E(R_i) bit-stream — a mapped rule on a
// decode-cache miss, a rule assembled for Thaw, each rule of a
// concatenated DecodePacked buffer — is read by DecodePackedRule below,
// in one pass over its pre-order symbols that emits the evaluator's flat
// form (automaton/eval_cache.h) directly: no GrammarRule, no per-node
// child vectors. Node ids are assigned at frame completion, children
// before parents in stream order — exactly the ids an appending
// RhsBuilder would hand out — so RuleFromFlat turns the result into the
// identical GrammarRule, and flattening the in-memory grammar yields the
// identical flat form. Every structural error in a stream yields
// kCorruption, never UB.
//
// A PackedRuleCursor walks the streams of one mmap-ed layer in place
// (storage/mapped.h): it adds the rule-directory checks (payload bounds,
// rank, exact bit length) and the post-order and star-root arrays. It
// owns only reusable scratch; it is cheap to construct and not
// thread-safe (one per decode call).

#ifndef XMLSEL_STORAGE_PACKED_CURSOR_H_
#define XMLSEL_STORAGE_PACKED_CURSOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automaton/eval_cache.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "storage/bitio.h"
#include "xmlsel/status.h"

namespace xmlsel {

/// Reusable frame stack of DecodePackedRule; capacity is kept across
/// rules.
struct PackedDecodeScratch {
  struct Frame {
    GrammarNode::Kind kind = GrammarNode::Kind::kTerminal;
    int32_t sym = 0;          // label / star-stats index / callee
    int32_t child_total = 0;  // -1: star (open list)
    int32_t child_done = 0;
    size_t kids_begin = 0;    // this frame's slice of `kids`
  };
  std::vector<Frame> frames;
  std::vector<int32_t> kids;  // completed child ids awaiting their parent
};

/// Decodes one E(R_i) stream (unary rank + pre-order symbols) from `r`
/// into `out`'s rank, root, nodes and children; `out` is cleared first
/// (capacity kept) and its post-order and star-root arrays stay empty.
/// `ranks` must supply the rank of every rule with index < `rule_index`
/// (calls reference only earlier rules); `star_count` bounds star-stats
/// indices.
Status DecodePackedRule(BitReader* r, int32_t rule_index,
                        int32_t label_count, int64_t star_count,
                        std::span<const int32_t> ranks,
                        PackedDecodeScratch* scratch, FlatRuleData* out);

/// The GrammarRule of a decoded flat rule, node for node (ids kept).
GrammarRule RuleFromFlat(const FlatRuleData& flat);

class PackedRuleCursor {
 public:
  /// `payload` is one layer's packed payload section; `ranks` is its
  /// rule directory's rank column. `maps` may be null (star roots then
  /// stay unrestricted, as in the eager path). All referenced data is
  /// borrowed and must outlive the cursor.
  PackedRuleCursor(std::span<const uint8_t> payload, int32_t label_count,
                   int64_t star_count, std::span<const int32_t> ranks,
                   const LabelMaps* maps)
      : payload_(payload),
        label_count_(label_count),
        star_count_(star_count),
        ranks_(ranks),
        maps_(maps) {}

  /// Decodes rule `rule_index`'s stream at [offset, offset + ⌈bit_len/8⌉)
  /// into `*out` (cleared first; capacity kept). The stream must consume
  /// exactly `bit_len` bits and its unary rank must match the directory's
  /// (`ranks[rule_index]`).
  Status DecodeFlat(int32_t rule_index, uint64_t offset, uint32_t bit_len,
                    FlatRuleData* out);

 private:
  std::span<const uint8_t> payload_;
  int32_t label_count_ = 0;
  int64_t star_count_ = 0;
  std::span<const int32_t> ranks_;
  const LabelMaps* maps_ = nullptr;
  PackedDecodeScratch scratch_;
};

}  // namespace xmlsel

#endif  // XMLSEL_STORAGE_PACKED_CURSOR_H_
