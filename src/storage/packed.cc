// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "storage/packed.h"

#include <string>

#include "storage/bitio.h"
#include "storage/packed_cursor.h"
#include "verify/verify.h"

namespace xmlsel {

namespace {

using packed::kSymBottom;
using packed::kSymParam;
using packed::kSymStar;

}  // namespace

int PackedSymbolWidth(int32_t label_count, int32_t rule_index) {
  // Symbols: star, param, ⊥, labels 1..label_count-1, rules 0..rule_index-1
  // → label_count + 2 + rule_index distinct ids.
  return BitsFor(static_cast<int64_t>(label_count) + 2 +
                 static_cast<int64_t>(rule_index));
}

void EncodePackedRule(const SltGrammar& g, int32_t rule_index,
                      int32_t label_count, BitWriter* w) {
  const GrammarRule& r = g.rule(rule_index);
  const int width = PackedSymbolWidth(label_count, rule_index);
  const int star_width =
      BitsFor(static_cast<int64_t>(g.star_stats().size()));
  w->WriteUnary(r.rank);
  // Pre-order emission with an explicit stack. A stack entry is either a
  // node to emit or a star-list control marker.
  struct Item {
    int32_t node;     // kNullNode = ⊥
    bool star_tail;   // emit the star-list terminator instead of a node
    bool star_elem;   // this node is a star child (needs its 1-prefix)
  };
  std::vector<Item> stack = {{r.root, false, false}};
  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    if (it.star_tail) {
      w->WriteBits(0, 1);  // end of star child list
      continue;
    }
    if (it.star_elem) {
      w->WriteBits(1, 1);  // another star child follows
    }
    if (it.node == kNullNode) {
      w->WriteBits(kSymBottom, width);
      continue;
    }
    const GrammarNode& n = r.nodes[static_cast<size_t>(it.node)];
    switch (n.kind) {
      case GrammarNode::Kind::kParam:
        w->WriteBits(kSymParam, width);
        break;
      case GrammarNode::Kind::kTerminal:
        w->WriteBits(kSymBottom + static_cast<uint64_t>(n.sym), width);
        stack.push_back({n.children[1], false, false});
        stack.push_back({n.children[0], false, false});
        break;
      case GrammarNode::Kind::kNonterminal:
        w->WriteBits(static_cast<uint64_t>(label_count) + 2 +
                         static_cast<uint64_t>(n.sym),
                     width);
        for (size_t c = n.children.size(); c-- > 0;) {
          stack.push_back({n.children[c], false, false});
        }
        break;
      case GrammarNode::Kind::kStar:
        w->WriteBits(kSymStar, width);
        w->WriteBits(static_cast<uint64_t>(n.sym), star_width);
        stack.push_back({kNullNode, true, false});  // terminator
        for (size_t c = n.children.size(); c-- > 0;) {
          stack.push_back({n.children[c], false, true});
        }
        break;
    }
  }
}

std::vector<uint8_t> EncodePacked(const SltGrammar& g, int32_t label_count) {
  BitWriter w;
  w.WriteVarint(static_cast<uint64_t>(label_count));
  w.WriteVarint(static_cast<uint64_t>(g.rule_count()));
  w.WriteVarint(static_cast<uint64_t>(g.star_stats().size()));
  for (const StarStats& s : g.star_stats()) {
    w.WriteVarint(static_cast<uint64_t>(s.height));
    w.WriteVarint(static_cast<uint64_t>(s.size));
  }
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    EncodePackedRule(g, i, label_count, &w);
  }
  return w.Finish();
}

Result<SltGrammar> DecodePacked(const std::vector<uint8_t>& bytes) {
  BitReader r(bytes);
  SltGrammar g;
  Result<uint64_t> label_count = r.ReadVarint();
  if (!label_count.ok()) return label_count.status();
  Result<uint64_t> rule_count = r.ReadVarint();
  if (!rule_count.ok()) return rule_count.status();
  Result<uint64_t> star_count = r.ReadVarint();
  if (!star_count.ok()) return star_count.status();
  if (label_count.value() > (1u << 28) || rule_count.value() > (1u << 28)) {
    return Status::Corruption("implausible packed header");
  }
  for (uint64_t s = 0; s < star_count.value(); ++s) {
    Result<uint64_t> h = r.ReadVarint();
    if (!h.ok()) return h.status();
    Result<uint64_t> sz = r.ReadVarint();
    if (!sz.ok()) return sz.status();
    g.InternStarStats({static_cast<int32_t>(h.value()),
                       static_cast<int64_t>(sz.value())});
  }
  const int32_t labels = static_cast<int32_t>(label_count.value());

  std::vector<int32_t> ranks;
  ranks.reserve(static_cast<size_t>(rule_count.value()));
  PackedDecodeScratch scratch;
  FlatRuleData flat;
  for (uint64_t i = 0; i < rule_count.value(); ++i) {
    XMLSEL_RETURN_IF_ERROR(DecodePackedRule(
        &r, static_cast<int32_t>(i), labels,
        static_cast<int64_t>(star_count.value()), ranks, &scratch, &flat));
    ranks.push_back(flat.rank);
    g.AddRule(RuleFromFlat(flat));
  }
  // The last rule must end inside the final byte, followed only by the
  // zero padding Finish() writes; otherwise some rule read a different
  // number of bits than it was written with.
  const int64_t end = r.position();
  if ((end + 7) / 8 != static_cast<int64_t>(bytes.size())) {
    return Status::Corruption("packed stream has " +
                              std::to_string(bytes.size()) +
                              " bytes, rules end at bit " +
                              std::to_string(end));
  }
  if (end % 8 != 0 &&
      (bytes.back() & (0xffu >> static_cast<unsigned>(end % 8))) != 0) {
    return Status::Corruption("packed stream has nonzero padding bits");
  }
  // Every structural invariant is enforced during decoding except the
  // start rule's rank; check it gracefully (fuzzed input must yield
  // kCorruption, not a crash).
  if (g.rule_count() > 0 && g.rule(g.start_rule()).rank != 0) {
    return Status::Corruption("start rule has parameters");
  }
  g.Validate();
#if XMLSEL_VERIFY_LEVEL >= 1
  // The decoder runs on untrusted bytes: report, never abort.
  if (Status vst = VerifyGrammar(g); !vst.ok()) {
    return Status::Corruption("decoded grammar fails verification: " +
                              vst.message());
  }
#endif
  return g;
}

int64_t PackedEncodedSize(const SltGrammar& g, int32_t label_count) {
  return static_cast<int64_t>(EncodePacked(g, label_count).size());
}

std::vector<std::vector<uint8_t>> EncodePackedPerRule(const SltGrammar& g,
                                                      int32_t label_count) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(static_cast<size_t>(g.rule_count()));
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    BitWriter w;
    EncodePackedRule(g, i, label_count, &w);
    out.push_back(w.Finish());
  }
  return out;
}

int64_t PointerRepresentationSize(const SltGrammar& g) {
  // A faithful accounting of the naive representation: per node, a kind
  // tag + symbol (8 bytes) and an 8-byte pointer per child slot; per rule,
  // a 16-byte header.
  int64_t bytes = 0;
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    bytes += 16;
    for (const GrammarNode& n : g.rule(i).nodes) {
      bytes += 8 + 8 * static_cast<int64_t>(n.children.size());
    }
  }
  bytes += 8 * static_cast<int64_t>(g.star_stats().size());
  return bytes;
}

}  // namespace xmlsel
