// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Packed synopsis storage (§7, static case). Each rule R_i is encoded as
// E(R_i): a unary parameter count followed by the pre-order symbol stream
// of its right-hand side, each symbol in ⌈log₂(|Σ| + i + 2)⌉ bits — the
// possibilities for a symbol of rule i being a star, a parameter (whose
// index is implicit: parameters appear in pre-order), ⊥ (the paper's A_0),
// one of |Σ| labels, or a call to one of the i earlier rules. Star nodes
// reference the deduplicated (h, s) lookup table and carry a 1-prefixed,
// 0-terminated child list, exactly as Figure 4 describes.
//
// Because a bottom-up automaton only ever walks a right-hand side in one
// post-order sweep and only references earlier rules, this stream is
// sufficient — no pointers are needed.

#ifndef XMLSEL_STORAGE_PACKED_H_
#define XMLSEL_STORAGE_PACKED_H_

#include <vector>

#include "grammar/slt.h"
#include "storage/bitio.h"
#include "xmlsel/status.h"

namespace xmlsel {

/// Encodes the grammar. `label_count` is the size of the name table
/// (including the reserved root label).
std::vector<uint8_t> EncodePacked(const SltGrammar& g, int32_t label_count);

/// Decodes a packed buffer back into a grammar.
Result<SltGrammar> DecodePacked(const std::vector<uint8_t>& bytes);

/// Size in bytes of the packed encoding — the §7/§8 synopsis size measure.
int64_t PackedEncodedSize(const SltGrammar& g, int32_t label_count);

/// Encodes each rule into its own byte-aligned buffer E(R_i) (used by the
/// dynamic blocked store, which manages rules individually). The global
/// header (label count, star table) is not included.
std::vector<std::vector<uint8_t>> EncodePackedPerRule(const SltGrammar& g,
                                                      int32_t label_count);

/// Size in bytes of the naive pointer-based in-memory representation, for
/// the §7 comparison ("this simple scheme slashes the space requirements").
int64_t PointerRepresentationSize(const SltGrammar& g);

// ---------------------------------------------------------------------------
// Per-rule codec. One rule's E(R_i) stream is self-contained given the
// global context (label count, star-table size) plus the ranks of earlier
// rules — the mmap-ed serving store (storage/mapped.h) uses this to decode
// individual rules on first touch without materializing the grammar. The
// one decoder of a stream is DecodePackedRule (storage/packed_cursor.h).

// Symbol ids within rule i's stream (shared by the encoder here and the
// decoder):
//   0                      star
//   1                      parameter (index implicit, pre-order)
//   2                      ⊥ (the paper's A_0)
//   2 + l                  label l, 1 ≤ l < label_count
//   label_count + 2 + j    call to rule j, 0 ≤ j < i
namespace packed {
inline constexpr uint64_t kSymStar = 0;
inline constexpr uint64_t kSymParam = 1;
inline constexpr uint64_t kSymBottom = 2;
}  // namespace packed

/// Bit width of one symbol in rule `rule_index`'s stream:
/// ⌈log₂(label_count + 2 + rule_index)⌉.
int PackedSymbolWidth(int32_t label_count, int32_t rule_index);

/// Appends rule `rule_index`'s E(R_i) stream (unary rank + pre-order
/// symbols) to `w`. No byte alignment is performed.
void EncodePackedRule(const SltGrammar& g, int32_t rule_index,
                      int32_t label_count, BitWriter* w);

}  // namespace xmlsel

#endif  // XMLSEL_STORAGE_PACKED_H_
