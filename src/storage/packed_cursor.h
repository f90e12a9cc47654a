// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// In-place rule access: walk a rule's §7 E(R_i) bit-stream in place
// (straight over the mmap-ed payload section) and emit the evaluator's
// flat form — no GrammarRule, no per-node child vectors, no decode-cache
// slot. A PackedRuleCursor is the decode cache's miss path and the
// source of its eviction sweep order (storage/mapped.h); its output is
// bit-identical to flattening an eager DecodePackedRule, which
// verify/mapped_verify.cc checks rule by rule.
//
// The cursor mirrors DecodePackedRule's frame algorithm exactly: node ids
// are assigned at frame completion, which is the same order RhsBuilder
// assigns them in the eager decoder, so ids, child arrays, post-order,
// and star-root sets all match the eager path element for element. All
// validation the eager decoder performs (label/star/callee ranges,
// parameter counts, stream-length agreement with the directory) is
// replicated — corrupt bytes yield kCorruption, never UB.
//
// A cursor owns only reusable scratch (frames, pending child ids); it is
// cheap to construct and not thread-safe (one per decode call).

#ifndef XMLSEL_STORAGE_PACKED_CURSOR_H_
#define XMLSEL_STORAGE_PACKED_CURSOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automaton/eval_cache.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "xmlsel/status.h"

namespace xmlsel {

class PackedRuleCursor {
 public:
  /// `payload` is one layer's packed payload section; `ranks` must cover
  /// every rule of the layer (calls reference only earlier rules, so the
  /// prefix below `rule_index` is what actually gets read). `maps` may be
  /// null (star roots then stay unrestricted, as in the eager path). All
  /// referenced data is borrowed and must outlive the cursor.
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

  /// Streams the rule and appends every called rule index to `*callees`
  /// (with repetitions, in stream order) — reachability scans touch no
  /// heap beyond the cursor's scratch and materialize nothing.
  Status ScanCalls(int32_t rule_index, uint64_t offset, uint32_t bit_len,
                   std::vector<int32_t>* callees);

 private:
  struct Frame {
    GrammarNode::Kind kind = GrammarNode::Kind::kTerminal;
    int32_t sym = 0;          // label / star-stats index / callee
    int32_t child_total = 0;  // -1: star (open list)
    int32_t child_done = 0;
    size_t kids_begin = 0;    // this frame's slice of kids_
  };

  std::span<const uint8_t> payload_;
  int32_t label_count_ = 0;
  int64_t star_count_ = 0;
  std::span<const int32_t> ranks_;
  const LabelMaps* maps_ = nullptr;

  // Reusable scratch, capacity kept across rules.
  std::vector<Frame> frames_;
  std::vector<int32_t> kids_;
  std::vector<int32_t> scan_stack_;
};

}  // namespace xmlsel

#endif  // XMLSEL_STORAGE_PACKED_CURSOR_H_
