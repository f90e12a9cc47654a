// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "automaton/grammar_eval.h"

#include "verify/verify.h"

#include <algorithm>

namespace xmlsel {

namespace {

constexpr size_t kMemoInitialSize = 64;  // power of two

uint64_t HashKey(std::span<const int32_t> key) {
  return HashSpan32(reinterpret_cast<const uint32_t*>(key.data()),
                    key.size());
}

/// Substitutes argument counter forms into a σ result form: the callee's
/// variables (arg index, pair) are replaced by the argument's own linear
/// form for that pair (which is expressed over the *caller's* parameters).
XMLSEL_HOT LinearForm Substitute(
    const LinearForm& f, std::span<const AnnState<LinearForm>* const> args,
    const StateRegistry& reg) {
  LinearForm out = LinearForm::Constant(f.constant);
  for (const LinearForm::Term& t : f) {
    int32_t arg = static_cast<int32_t>(t.first >> 32);
    QPair pair = static_cast<QPair>(t.first & 0xffffffffull);
    const LinearForm* sub =
        args[static_cast<size_t>(arg)]->FindCount(reg, pair);
    if (sub != nullptr) out.AddScaled(*sub, t.second);
  }
  return out;
}

}  // namespace

SigmaMemo::SigmaMemo(Arena* arena) : arena_(arena) {
  table_.assign(kMemoInitialSize, -1);
  table_mask_ = kMemoInitialSize - 1;
}

XMLSEL_HOT int32_t SigmaMemo::FindSlot(std::span<const int32_t> key,
                                       uint64_t hash, size_t* slot) const {
  ++probes_;
  for (size_t s = static_cast<size_t>(hash) & table_mask_;;
       s = (s + 1) & table_mask_) {
    int32_t id = table_[s];
    if (id < 0) {
      *slot = s;
      return -1;
    }
    const KeyRecord& r = keys_[static_cast<size_t>(id)];
    if (r.hash == hash && r.len == key.size() &&
        std::equal(key.begin(), key.end(), r.key)) {
      ++hits_;
      return id;
    }
  }
}

void SigmaMemo::GrowTable() {
  size_t new_size = table_.size() * 2;
  table_.assign(new_size, -1);
  table_mask_ = new_size - 1;
  ++HotLoopHeapAllocs();
  for (size_t id = 0; id < keys_.size(); ++id) {
    for (size_t s = static_cast<size_t>(keys_[id].hash) & table_mask_;;
         s = (s + 1) & table_mask_) {
      if (table_[s] < 0) {
        table_[s] = static_cast<int32_t>(id);
        break;
      }
    }
  }
}

XMLSEL_HOT int32_t SigmaMemo::InternKey(std::span<const int32_t> key,
                                        bool* inserted) {
  uint64_t hash = HashKey(key);
  size_t slot = 0;
  int32_t id = FindSlot(key, hash, &slot);
  if (id >= 0) {
    *inserted = false;
    return id;
  }
  id = static_cast<int32_t>(keys_.size());
  KeyRecord r;
  r.key = arena_->CopySpan<int32_t>(key).data();
  r.len = static_cast<uint32_t>(key.size());
  r.hash = hash;
  // xmlsel-lint: allow(hot-alloc): intern growth, cold after warmup
  keys_.push_back(r);
  // xmlsel-lint: allow(hot-alloc): intern growth, cold after warmup
  sigmas_.emplace_back();
  table_[slot] = id;
  // Grow at ~70% load so probe chains stay short.
  if (keys_.size() * 10 >= table_.size() * 7) GrowTable();
  *inserted = true;
  return id;
}

int32_t SigmaMemo::Find(std::span<const int32_t> key) const {
  size_t slot = 0;
  return FindSlot(key, HashKey(key), &slot);
}

GrammarEvaluator::GrammarEvaluator(const RuleProvider* provider,
                                   const CompiledQuery* cq,
                                   const LabelMaps* maps, BoundMode mode)
    : src_(provider), cq_(cq), maps_(maps), mode_(mode),
      memo_(&arena_),
      star_(cq, &reg_, maps, &scratch_, &arena_) {
  // The compiled query outlives the evaluator, so its pair indexer can be
  // borrowed; dense queries then run on the bitset state kernel.
  reg_.AttachIndexer(&cq_->indexer());
}

XMLSEL_HOT bool GrammarEvaluator::PushTask(int32_t memo_id,
                                           std::span<const int32_t> key) {
  // Rule data is query-independent: served from the shared synopsis cache
  // or decoded on first touch by a mapped provider. All providers hand out
  // stable references.
  RuleEvalData d = src_->Rule(key[0]);
  if (!d.valid) return false;
  // xmlsel-lint: allow(hot-alloc): pool grows to peak stack depth once
  if (live_tasks_ == tasks_.size()) tasks_.emplace_back();
  Task& t = tasks_[live_tasks_++];
  t.memo_id = memo_id;
  t.data = d;
  t.next = 0;
  t.base = height_;
  return true;
}

XMLSEL_HOT GrammarEvaluator::Ann& GrammarEvaluator::FreeSlot() {
  if (height_ == stack_.size()) {
    // xmlsel-lint: allow(hot-alloc): stack doubles to peak depth once
    stack_.resize(std::max<size_t>(16, 2 * stack_.size()));
    ++HotLoopHeapAllocs();
  }
  return stack_[height_];
}

XMLSEL_HOT void GrammarEvaluator::Reduce(size_t k) {
  if (k > 0) std::swap(stack_[height_ - k], stack_[height_]);
  height_ = height_ - k + 1;
}

XMLSEL_HOT GrammarEvalResult GrammarEvaluator::Evaluate() {
  GrammarEvalResult result;
  const int64_t heap0 = HotLoopHeapAllocs();
  const int64_t mprobes0 = memo_.probes();
  const int64_t mhits0 = memo_.hits();
  const int64_t iprobes0 = reg_.probes();
  const int64_t ihits0 = reg_.hits();
  static const Ann kEmpty;  // ⊥ children and the final right sibling

  Ann& top = top_scratch_;  // empty grammar ⇒ empty state
  top.state = reg_.empty_state();
  top.counts.clear();
  bool provider_failed = false;
  if (src_->rule_count() > 0) {
    key_scratch_.clear();
    // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
    key_scratch_.push_back(src_->start_rule());
    bool inserted = false;
    int32_t root_id = memo_.InternKey(key_scratch_, &inserted);
    // Iterative evaluation: a stack of pooled rule-evaluation tasks over
    // one operand stack. Each task walks its RHS in post-order, so a
    // node's non-⊥ children are the top operands when it is visited; the
    // node replaces them by its own state. At an unmemoized nonterminal
    // call the task leaves the call's operands in place, pushes a sub-task
    // above them, and retries the node once the sub-task has filled the
    // memo. A warm memo (re-run on the same evaluator) skips the stack
    // wholly.
    if (!memo_.sigma(root_id).ready &&
        !PushTask(root_id, memo_.key(root_id))) {
      provider_failed = true;
    }
    while (!provider_failed && live_tasks_ > 0) {
      Task& t = tasks_[live_tasks_ - 1];
      const RuleEvalData& r = t.data;
      if (t.next == r.post_order.size()) {
        // Rule done: move the root's state into σ and pop to the base.
        Sigma& sigma = memo_.sigma(t.memo_id);
        if (r.root != kNullNode) {
          XMLSEL_DCHECK(height_ == t.base + 1);
          Ann& root = stack_[t.base];
          sigma.state = root.state;
          sigma.counts = std::move(root.counts);
        } else {
          sigma.state = reg_.empty_state();
          sigma.counts.clear();
        }
        height_ = t.base;
        sigma.ready = true;
        ++result.sigma_entries;
        --live_tasks_;
        continue;
      }
      int32_t id = r.post_order[t.next];
      const RuleNodeView& n = r.nodes[static_cast<size_t>(id)];
      std::span<const int32_t> kids = r.children_of(id);
      // Reserve the result slot before taking operand references.
      Ann& out = FreeSlot();
      // The node's operands: its non-⊥ children are the top k entries, in
      // child order; ⊥ reads the static empty state.
      size_t k = 0;
      for (int32_t c : kids) k += c != kNullNode ? 1 : 0;
      args_scratch_.clear();
      for (size_t i = 0, pos = height_ - k; i < kids.size(); ++i) {
        // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
        args_scratch_.push_back(kids[i] == kNullNode ? &kEmpty
                                                     : &stack_[pos++]);
      }
      switch (n.kind) {
        case GrammarNode::Kind::kParam: {
          // The parameter's state is given by the memo key; its counters
          // are the symbolic variables X(param, pair).
          out.state = memo_.key(t.memo_id)[static_cast<size_t>(n.sym) + 1];
          out.counts.clear();
          for (QPair pr : reg_.pairs(out.state)) {
            // xmlsel-lint: allow(hot-alloc): pooled slot, counted by probe
            out.counts.push_back(LinearForm::Var(n.sym, pr));
          }
          break;
        }
        case GrammarNode::Kind::kTerminal:
          CountingTransitionInto<LinearOps>(
              *cq_, &reg_, *args_scratch_[0], *args_scratch_[1], n.sym,
              /*dedup=*/mode_ == BoundMode::kLower, &scratch_, &out);
          break;
        case GrammarNode::Kind::kStar:
          if (mode_ == BoundMode::kLower) {
            star_.Lower(args_scratch_, &out);
          } else {
            star_.Upper(args_scratch_,
                        src_->star_stats()[static_cast<size_t>(n.sym)],
                        r.star_roots_of(id), &out);
          }
          break;
        case GrammarNode::Kind::kNonterminal: {
          key_scratch_.clear();
          // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
          key_scratch_.push_back(n.sym);
          for (const Ann* a : args_scratch_) {
            // xmlsel-lint: allow(hot-alloc): retained scratch, capacity kept
            key_scratch_.push_back(a->state);
          }
          int32_t mid = memo_.InternKey(key_scratch_, &inserted);
          if (!memo_.sigma(mid).ready) {
            if (!PushTask(mid, memo_.key(mid))) provider_failed = true;
            // Retry this node once the sub-task has filled the memo; its
            // operands stay below the sub-task's base. (PushTask may have
            // moved the task pool — touch nothing.)
            continue;
          }
          const Sigma& sigma = memo_.sigma(mid);
          out.state = sigma.state;
          out.counts.clear();
          for (const LinearForm& f : sigma.counts) {
            // xmlsel-lint: allow(hot-alloc): pooled slot, counted by probe
            out.counts.push_back(Substitute(f, args_scratch_, reg_));
          }
          break;
        }
      }
      Reduce(k);
      ++t.next;
    }
    if (provider_failed) {
      // Abandon both stacks (retired tasks leave not-ready memo entries; a
      // later Evaluate() on this evaluator simply re-pushes them) and
      // surface the provider's diagnostic instead of a bogus count.
      live_tasks_ = 0;
      height_ = 0;
      result.status = src_->error();
      if (result.status.ok()) {
        result.status = Status::Corruption("rule provider failed");
      }
      return result;
    }
    const Sigma& s = memo_.sigma(root_id);
    XMLSEL_CHECK(s.ready);
    top.state = s.state;
    top.counts = s.counts;
  }
  CountingTransitionInto<LinearOps>(*cq_, &reg_, top, kEmpty, kRootLabel,
                                    /*dedup=*/mode_ == BoundMode::kLower,
                                    &scratch_, &final_scratch_);
  FinalResult<LinearForm> fr = ExtractResult(*cq_, reg_, final_scratch_);
  result.accepted = fr.accepted;
  XMLSEL_CHECK(fr.count.IsConstant());
  result.count = fr.count.constant;
  result.distinct_states = reg_.size();
  result.memo_probes = memo_.probes() - mprobes0;
  result.memo_hits = memo_.hits() - mhits0;
  result.intern_probes = reg_.probes() - iprobes0;
  result.intern_hits = reg_.hits() - ihits0;
  result.pool_pairs = reg_.pool_pairs();
  result.arena_bytes = arena_.bytes_allocated();
  result.heap_allocs = HotLoopHeapAllocs() - heap0;
  result.compile_cache_hits = compile_cache_hits_;
  result.compile_cache_misses = compile_cache_misses_;
  XMLSEL_VERIFY_STATUS(2, VerifyStateRegistry(reg_, cq_));
  XMLSEL_VERIFY_STATUS(2, VerifySigmaMemo(memo_, *src_, reg_, cq_));
  return result;
}

}  // namespace xmlsel
