// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "storage/packed_cursor.h"

#include "storage/packed.h"

namespace xmlsel {

namespace {

Status RuleCorruption(int32_t rule, const std::string& what) {
  return Status::Corruption("packed: rule " + std::to_string(rule) + " " +
                            what);
}

// Cold-path formatters, kept out of the XMLSEL_HOT decoder bodies.
Status RankMismatch(int32_t rule, int32_t got, int32_t want) {
  return RuleCorruption(rule, "stream rank " + std::to_string(got) +
                                  " disagrees with directory rank " +
                                  std::to_string(want));
}

Status StreamLengthMismatch(int32_t rule, int64_t got, uint32_t want) {
  return RuleCorruption(rule, "stream consumed " + std::to_string(got) +
                                  " bits, directory declares " +
                                  std::to_string(want));
}

}  // namespace

XMLSEL_HOT Status DecodePackedRule(BitReader* r, int32_t rule_index,
                                   int32_t label_count, int64_t star_count,
                                   std::span<const int32_t> ranks,
                                   PackedDecodeScratch* scratch,
                                   FlatRuleData* out) {
  using Frame = PackedDecodeScratch::Frame;
  const int width = PackedSymbolWidth(label_count, rule_index);
  const int star_width = BitsFor(star_count);
  Result<int64_t> rank = r->ReadUnary();
  if (!rank.ok()) return rank.status();
  out->Clear();
  out->rank = static_cast<int32_t>(rank.value());
  std::vector<Frame>& frames = scratch->frames;
  std::vector<int32_t>& kids = scratch->kids;
  frames.clear();
  kids.clear();
  int32_t next_param = 0;
  int32_t root = kNullNode;
  bool done_root = false;

  // A node is emitted when its frame completes, taking the completed
  // child ids pending above `kids_begin` as its child slice.
  auto emit = [&](GrammarNode::Kind kind, int32_t sym,
                  size_t kids_begin) -> int32_t {
    int32_t id = static_cast<int32_t>(out->nodes.size());
    RuleNodeView v;
    v.kind = kind;
    v.sym = sym;
    v.child_begin = static_cast<int32_t>(out->children.size());
    v.child_count = static_cast<int32_t>(kids.size() - kids_begin);
    // xmlsel-lint: allow(hot-alloc): retained output, capacity kept
    out->children.insert(out->children.end(), kids.begin() + kids_begin,
                         kids.end());
    // xmlsel-lint: allow(hot-alloc): shrink only, never reallocates
    kids.resize(kids_begin);
    // xmlsel-lint: allow(hot-alloc): retained output, capacity kept
    out->nodes.push_back(v);
    return id;
  };
  // Hands a completed node id (or ⊥) to the innermost open frame, or
  // makes it the root.
  auto deposit = [&](int32_t id) {
    if (frames.empty()) {
      root = id;
      done_root = true;
    } else {
      // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
      kids.push_back(id);
      ++frames.back().child_done;
    }
  };
  // Completes frames whose children are all decoded.
  auto finish_ready = [&]() {
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child_total < 0) return;  // star: list still open
      if (f.child_done < f.child_total) return;
      int32_t id = emit(f.kind, f.sym, f.kids_begin);
      frames.pop_back();
      deposit(id);
    }
  };
  auto push_frame = [&](GrammarNode::Kind kind, int32_t sym,
                        int32_t total) {
    Frame f;
    f.kind = kind;
    f.sym = sym;
    f.child_total = total;
    f.kids_begin = kids.size();
    // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
    frames.push_back(f);
  };

  while (!done_root) {
    // If the innermost frame is an open star list, consume its control
    // bit first.
    if (!frames.empty() && frames.back().child_total < 0) {
      Result<uint64_t> more = r->ReadBits(1);
      if (!more.ok()) return more.status();
      if (more.value() == 0) {
        Frame f = frames.back();
        frames.pop_back();
        deposit(emit(GrammarNode::Kind::kStar, f.sym, f.kids_begin));
        finish_ready();
        continue;
      }
      // Fall through to decode the next star child symbol.
    }
    Result<uint64_t> sym = r->ReadBits(width);
    if (!sym.ok()) return sym.status();
    uint64_t s = sym.value();
    if (s == packed::kSymParam) {
      if (next_param >= out->rank) {
        return RuleCorruption(rule_index, "carries too many parameters");
      }
      deposit(emit(GrammarNode::Kind::kParam, next_param++, kids.size()));
      finish_ready();
    } else if (s == packed::kSymBottom) {
      deposit(kNullNode);
      finish_ready();
    } else if (s == packed::kSymStar) {
      Result<uint64_t> stats = r->ReadBits(star_width);
      if (!stats.ok()) return stats.status();
      if (stats.value() >= static_cast<uint64_t>(star_count)) {
        return RuleCorruption(rule_index, "star stats index out of range");
      }
      push_frame(GrammarNode::Kind::kStar,
                 static_cast<int32_t>(stats.value()), -1);
    } else if (s < static_cast<uint64_t>(label_count) + 2) {
      LabelId label = static_cast<LabelId>(s - packed::kSymBottom);
      if (label <= 0 || label >= label_count) {
        return RuleCorruption(rule_index, "label symbol out of range");
      }
      push_frame(GrammarNode::Kind::kTerminal, label, 2);
    } else {
      int32_t callee = static_cast<int32_t>(
          s - static_cast<uint64_t>(label_count) - 2);
      if (callee < 0 || callee >= rule_index ||
          callee >= static_cast<int32_t>(ranks.size())) {
        return RuleCorruption(rule_index, "references a rule out of range");
      }
      int32_t callee_rank = ranks[static_cast<size_t>(callee)];
      if (callee_rank == 0) {
        deposit(emit(GrammarNode::Kind::kNonterminal, callee, kids.size()));
        finish_ready();
      } else {
        push_frame(GrammarNode::Kind::kNonterminal, callee, callee_rank);
      }
    }
  }
  if (next_param != out->rank) {
    return RuleCorruption(rule_index, "parameter count mismatch");
  }
  out->root = root;
  return Status::OK();
}

GrammarRule RuleFromFlat(const FlatRuleData& flat) {
  GrammarRule rule;
  rule.rank = flat.rank;
  rule.root = flat.root;
  rule.nodes.reserve(flat.nodes.size());
  for (const RuleNodeView& n : flat.nodes) {
    auto first = flat.children.begin() + n.child_begin;
    rule.nodes.push_back(
        {n.kind, n.sym, std::vector<int32_t>(first, first + n.child_count)});
  }
  return rule;
}

XMLSEL_HOT Status PackedRuleCursor::DecodeFlat(int32_t rule_index,
                                               uint64_t offset,
                                               uint32_t bit_len,
                                               FlatRuleData* out) {
  const uint64_t nbytes = (static_cast<uint64_t>(bit_len) + 7) / 8;
  if (offset > payload_.size() || nbytes > payload_.size() - offset) {
    return RuleCorruption(rule_index, "stream escapes its payload section");
  }
  BitReader reader(payload_.data() + offset, static_cast<size_t>(nbytes));
  XMLSEL_RETURN_IF_ERROR(DecodePackedRule(&reader, rule_index, label_count_,
                                          star_count_, ranks_, &scratch_,
                                          out));
  if (rule_index < static_cast<int32_t>(ranks_.size()) &&
      out->rank != ranks_[static_cast<size_t>(rule_index)]) {
    return RankMismatch(rule_index, out->rank,
                        ranks_[static_cast<size_t>(rule_index)]);
  }
  if (reader.position() != static_cast<int64_t>(bit_len)) {
    return StreamLengthMismatch(rule_index, reader.position(), bit_len);
  }
  AppendFlatPostOrder(out->nodes, out->children, out->root, &out->post_order);
  ComputeFlatStarRoots(out->nodes, out->children, maps_,
                       &out->star_root_begin, &out->star_root_labels);
  return Status::OK();
}

}  // namespace xmlsel
