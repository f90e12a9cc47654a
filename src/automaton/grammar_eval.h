// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Selectivity counting over SLT grammars (§5.3–5.4): evaluate the counting
// automaton directly on the grammar in time O(|P|^k · |G|), memoizing the
// state functions σ_i per (rule, parameter-state) combination and keeping
// counters as linear forms over parameter counters. Lossy grammars are
// handled through the star evaluator, yielding guaranteed lower/upper
// bounds.
//
// Kernel layout (see DESIGN.md "Evaluation kernel"): the σ-memo is a flat
// open-addressed table whose variable-length keys live in the evaluator's
// bump arena; rule-evaluation tasks, one operand stack shared by all
// tasks, and all transition scratch are pooled and reused, so the
// steady-state σ path performs no heap allocation.

#ifndef XMLSEL_AUTOMATON_GRAMMAR_EVAL_H_
#define XMLSEL_AUTOMATON_GRAMMAR_EVAL_H_

#include <span>
#include <vector>

#include "automaton/counting.h"
#include "automaton/eval_cache.h"
#include "automaton/star.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "xmlsel/arena.h"

namespace xmlsel {

/// How star nodes are treated (irrelevant for lossless grammars).
enum class BoundMode {
  kLower,  ///< ignore hidden nodes (guaranteed lower bound)
  kUpper,  ///< admit all consistent hidden trees (guaranteed upper bound)
};

/// Result of a grammar evaluation, with the kernel's cheap counters so
/// callers (benches, tests) can verify hot-path behaviour without a
/// profiler.
struct GrammarEvalResult {
  bool accepted = false;
  int64_t count = 0;
  /// Non-OK when the rule provider failed mid-evaluation (a lazily
  /// decoded rule was corrupt). `accepted`/`count` are then meaningless;
  /// eager providers never fail.
  Status status = Status::OK();
  int64_t sigma_entries = 0;    ///< memoized σ_i evaluations performed
  int64_t distinct_states = 0;  ///< automaton states materialized
  // --- Kernel counters ---
  int64_t memo_probes = 0;      ///< σ-memo lookups
  int64_t memo_hits = 0;        ///< σ-memo lookups answered from the table
  int64_t intern_probes = 0;    ///< state-registry intern probes
  int64_t intern_hits = 0;      ///< intern probes that found a state
  int64_t pool_pairs = 0;       ///< QPairs in the registry's flat pool
  int64_t arena_bytes = 0;      ///< bytes bump-allocated by this evaluator
  int64_t heap_allocs = 0;      ///< hot-loop heap allocations (spills,
                                ///< pool/table growth) during Evaluate()
  // --- Compiled-query cache counters ---
  // The evaluator itself never compiles; callers that obtained `cq` from
  // a CompiledQueryCache forward the cache's counters here
  // (GrammarEvaluator::SetCompileCacheStats) so batch workloads can
  // report compile-vs-eval behaviour alongside the kernel counters.
  int64_t compile_cache_hits = 0;
  int64_t compile_cache_misses = 0;
};

/// σ result for one (rule, parameter states…) key: the root state plus
/// one linear form per root-state pair, over the rule's own parameters.
struct Sigma {
  StateId state = 0;
  std::vector<LinearForm> counts;
  bool ready = false;  ///< false while the rule's task is still on the stack
};

/// Flat open-addressed memo for σ results. Keys are [rule, param state
/// ids…] spans interned into the evaluator's arena (exact-size, stable —
/// no per-key vector); the table stores dense entry ids and probes with
/// a precomputed mix hash. Not thread-safe (one per evaluator).
class SigmaMemo {
 public:
  explicit SigmaMemo(Arena* arena);

  /// Returns the entry id for `key`, interning it (with an empty,
  /// not-ready Sigma) on first sight. `*inserted` reports a miss.
  int32_t InternKey(std::span<const int32_t> key, bool* inserted);
  /// Probe only: entry id or -1.
  int32_t Find(std::span<const int32_t> key) const;

  Sigma& sigma(int32_t id) { return sigmas_[static_cast<size_t>(id)]; }
  const Sigma& sigma(int32_t id) const {
    return sigmas_[static_cast<size_t>(id)];
  }

  /// The interned [rule, param state ids…] key of an entry (arena-stable).
  std::span<const int32_t> key(int32_t id) const {
    const KeyRecord& r = keys_[static_cast<size_t>(id)];
    return {r.key, static_cast<size_t>(r.len)};
  }

  int64_t size() const { return static_cast<int64_t>(sigmas_.size()); }
  int64_t probes() const { return probes_; }
  int64_t hits() const { return hits_; }

  /// Mutation-test hook: overwrites one word of an interned key in place
  /// (the arena-owned span is logically immutable — this exists only so
  /// the verifier's detection of key corruption can be exercised).
  void TestOnlyCorruptKey(int32_t id, uint32_t pos, int32_t value) {
    const_cast<int32_t*>(keys_[static_cast<size_t>(id)].key)[pos] = value;
  }

 private:
  struct KeyRecord {
    const int32_t* key = nullptr;  // arena-owned span
    uint32_t len = 0;
    uint64_t hash = 0;
  };
  int32_t FindSlot(std::span<const int32_t> key, uint64_t hash,
                   size_t* slot) const;
  void GrowTable();

  Arena* arena_;
  std::vector<KeyRecord> keys_;
  std::vector<Sigma> sigmas_;
  std::vector<int32_t> table_;  // open addressing; -1 = empty
  size_t table_mask_ = 0;
  mutable int64_t probes_ = 0;
  mutable int64_t hits_ = 0;
};

/// Evaluates one compiled query over a grammar. A fresh evaluator is
/// cheap; the σ memo lives for the lifetime of the evaluator, so repeated
/// Evaluate() calls (e.g. during updates) reuse nothing across queries by
/// design — each query has its own automaton. An evaluator owns all of
/// its mutable state (StateRegistry, memo, arena, scratch), so any number
/// of evaluators may run concurrently over the same read-only
/// grammar/maps/cache.
class GrammarEvaluator {
 public:
  /// Rules and their query-independent eval data come from `provider`:
  /// a synopsis's eval_cache(), a mapped layer's lazy decode cache, or
  /// SynopsisEvalCache::Build(&grammar, maps) for a bare grammar. The
  /// provider must outlive the evaluator and should be built with the
  /// same `maps`. `maps` may be null (upper bounds then skip label
  /// pruning). Provider failures (corrupt lazily-decoded rules) abort
  /// Evaluate() with a non-OK GrammarEvalResult::status.
  GrammarEvaluator(const RuleProvider* provider, const CompiledQuery* cq,
                   const LabelMaps* maps, BoundMode mode);

  /// Runs the automaton over the whole grammar, including the final
  /// virtual-root transition. Re-running on a warm evaluator serves
  /// every rule from the memo (the steady-state path).
  GrammarEvalResult Evaluate();

  /// Read access to the evaluator's kernel state, for the verify layer's
  /// post-evaluation audits (VerifyStateRegistry / VerifySigmaMemo).
  const StateRegistry& registry() const { return reg_; }
  const SigmaMemo& memo() const { return memo_; }

  /// Mutation-test hooks for the verify harness.
  StateRegistry* TestOnlyMutableRegistry() { return &reg_; }
  SigmaMemo* TestOnlyMutableMemo() { return &memo_; }

  /// Records compiled-query-cache counters to copy into every Evaluate()
  /// result (the cache lives a layer above; see GrammarEvalResult).
  void SetCompileCacheStats(int64_t hits, int64_t misses) {
    compile_cache_hits_ = hits;
    compile_cache_misses_ = misses;
  }

 private:
  using Ann = AnnState<LinearForm>;

  /// One rule-evaluation task. Tasks are pooled: popping retires the
  /// task object for reuse by the next push. The rule's flat view is
  /// resolved once at push time (one provider lookup per task, not per
  /// node visit). The task's operands live on the evaluator's operand
  /// stack from `base` up.
  struct Task {
    int32_t memo_id = -1;              // σ entry this task will fill
    RuleEvalData data;                 // flat spans into provider storage
    size_t next = 0;                   // position in data.post_order
    size_t base = 0;                   // operand-stack height at push
  };

  /// Pushes a (pooled) task for the memo entry `memo_id`. Returns false
  /// when the provider could not produce the rule (lazy decode failure);
  /// the evaluation must then abort.
  bool PushTask(int32_t memo_id, std::span<const int32_t> key);

  /// The free slot just above the operand stack's top, growing the stack
  /// first — so operand references taken after this call stay valid
  /// while the node's result is written into the slot.
  Ann& FreeSlot();

  /// Lands the result written into FreeSlot() in place of the top `k`
  /// operands (swapped down, so the first operand's counts capacity moves
  /// up to be reused by the next free slot).
  void Reduce(size_t k);

  const RuleProvider* src_;
  const CompiledQuery* cq_;
  const LabelMaps* maps_;
  BoundMode mode_;
  StateRegistry reg_;
  Arena arena_;
  SigmaMemo memo_;
  StarEvaluator star_;
  TransitionScratch<LinearForm> scratch_;
  std::vector<Task> tasks_;          // task stack; retired slots reused
  size_t live_tasks_ = 0;
  // Operand stack of the post-order walk: every evaluated RHS node leaves
  // its state here until its parent consumes it. Slots above `height_`
  // keep their counts capacity for the next push.
  std::vector<Ann> stack_;
  size_t height_ = 0;
  std::vector<int32_t> key_scratch_;
  std::vector<const Ann*> args_scratch_;
  Ann top_scratch_;                  // start-rule state for the final step
  Ann final_scratch_;                // virtual-root transition output
  int64_t compile_cache_hits_ = 0;
  int64_t compile_cache_misses_ = 0;
};

}  // namespace xmlsel

#endif  // XMLSEL_AUTOMATON_GRAMMAR_EVAL_H_
