// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Tests for the allocation-free evaluation kernel: the bump arena, the
// SSO LinearForm (property-tested against a naive map oracle), the pooled
// StateRegistry (property-tested against a naive set-of-vectors oracle),
// and the steady-state guarantee that a warm evaluator re-runs without
// heap allocation and with bit-identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/counting.h"
#include "automaton/doc_eval.h"
#include "automaton/grammar_eval.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "xmlsel/arena.h"

namespace xmlsel {
namespace {

// --------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);  // small chunks force the slow path early
  std::vector<std::span<uint64_t>> spans;
  for (size_t n = 1; n <= 32; ++n) {
    std::span<uint64_t> s = arena.AllocateSpan<uint64_t>(n);
    ASSERT_EQ(s.size(), n);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(s.data()) % alignof(uint64_t), 0u);
    for (size_t i = 0; i < n; ++i) s[i] = (n << 16) | i;
    spans.push_back(s);
  }
  // No allocation overwrote an earlier one.
  for (size_t n = 1; n <= 32; ++n) {
    std::span<uint64_t> s = spans[n - 1];
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(s[i], (n << 16) | i);
  }
  EXPECT_GE(arena.bytes_reserved(), 64);
}

TEST(ArenaTest, CopySpanIsStable) {
  Arena arena;
  std::vector<int32_t> src = {5, 4, 3, 2, 1};
  std::span<int32_t> copy =
      arena.CopySpan<int32_t>(std::span<const int32_t>(src));
  src.assign(5, 0);  // mutating the source must not affect the copy
  ASSERT_EQ(copy.size(), 5u);
  for (int32_t i = 0; i < 5; ++i) EXPECT_EQ(copy[static_cast<size_t>(i)], 5 - i);
}

TEST(ArenaTest, MarkResetReclaimsWithoutFreeing) {
  Arena arena(128);
  arena.AllocateSpan<uint8_t>(100);
  Arena::Mark m = arena.mark();
  arena.AllocateSpan<uint8_t>(1000);  // spills into further chunks
  int64_t reserved = arena.bytes_reserved();
  arena.ResetTo(m);
  // Re-allocating the same amount after the reset buys no new chunk.
  int64_t heap0 = HotLoopHeapAllocs();
  arena.AllocateSpan<uint8_t>(1000);
  EXPECT_EQ(HotLoopHeapAllocs() - heap0, 0);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, ScopedMarkRewindsOnScopeExit) {
  Arena arena(128);
  arena.AllocateSpan<uint8_t>(10);
  Arena::Mark before = arena.mark();
  {
    ScopedArenaMark scope(&arena);
    arena.AllocateSpan<uint8_t>(500);
  }
  Arena::Mark after = arena.mark();
  EXPECT_EQ(before.chunk, after.chunk);
  EXPECT_EQ(before.used, after.used);
}

// --------------------------------------------------------------------
// LinearForm vs. a naive map oracle

/// Naive reference: constant + map from variable key to coefficient,
/// saturating exactly like the kernel claims to.
struct OracleForm {
  int64_t constant = 0;
  std::map<uint64_t, int64_t> terms;

  static int64_t Sat(int64_t v) {
    return v > kCountSaturate ? kCountSaturate : v;
  }
  void Add(const OracleForm& o) {
    constant = Sat(constant + o.constant);
    for (const auto& [k, c] : o.terms) {
      int64_t next = Sat(terms[k] + c);
      if (next == 0) {
        terms.erase(k);
      } else {
        terms[k] = next;
      }
    }
  }
  void Scale(int64_t s) {
    if (s == 0) {
      constant = 0;
      terms.clear();
      return;
    }
    auto mul = [](int64_t a, int64_t b) {
      int64_t r;
      if (__builtin_mul_overflow(a, b, &r)) return kCountSaturate;
      return Sat(r);
    };
    constant = mul(constant, s);
    for (auto it = terms.begin(); it != terms.end();) {
      it->second = mul(it->second, s);
      it = it->second == 0 ? terms.erase(it) : std::next(it);
    }
  }
};

void ExpectMatchesOracle(const LinearForm& f, const OracleForm& o) {
  ASSERT_EQ(f.constant, o.constant);
  ASSERT_EQ(f.size(), o.terms.size());
  size_t i = 0;
  for (const auto& [k, c] : o.terms) {
    EXPECT_EQ(f.term(i).first, k);
    EXPECT_EQ(f.term(i).second, c);
    ++i;
  }
  // Invariants: sorted keys, no duplicates, no zero coefficients.
  for (size_t j = 0; j + 1 < f.size(); ++j) {
    EXPECT_LT(f.term(j).first, f.term(j + 1).first);
  }
  for (const LinearForm::Term& t : f) EXPECT_NE(t.second, 0);
}

TEST(LinearFormPropertyTest, RandomAddSequencesMatchMapOracle) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    LinearForm f;
    OracleForm o;
    for (int step = 0; step < 30; ++step) {
      int op = static_cast<int>(rng.Uniform(0, 3));
      if (op == 0) {
        // Add a random small form (possibly with negative coefficients,
        // to exercise cancellation).
        LinearForm g;
        OracleForm og;
        int64_t c = rng.Uniform(-3, 3);
        g.constant = c;
        og.constant = c;
        uint64_t key = 0;
        int terms = static_cast<int>(rng.Uniform(0, 4));
        for (int t = 0; t < terms; ++t) {
          key += static_cast<uint64_t>(rng.Uniform(1, 5));
          int64_t coeff = rng.Uniform(-4, 4);
          if (coeff == 0) coeff = 1;
          g.PushTerm(key, coeff);
          og.terms[key] = coeff;
        }
        f.Add(g);
        o.Add(og);
      } else if (op == 1) {
        int64_t s = rng.Uniform(-2, 3);
        f.ScaleBy(s);
        o.Scale(s);
      } else if (op == 2) {
        f.Add(f);  // aliasing self-add
        OracleForm copy = o;
        o.Add(copy);
      } else {
        // Near-saturation constants: the clamp must match the oracle's.
        LinearForm g = LinearForm::Constant(kCountSaturate - 1);
        OracleForm og;
        og.constant = kCountSaturate - 1;
        f.Add(g);
        o.Add(og);
      }
      ExpectMatchesOracle(f, o);
    }
    // Copy/move round-trips preserve value.
    LinearForm copy = f;
    ExpectMatchesOracle(copy, o);
    LinearForm moved = std::move(copy);
    ExpectMatchesOracle(moved, o);
    copy = moved;
    ExpectMatchesOracle(copy, o);
  }
}

TEST(LinearFormPropertyTest, SpillAndCancellationReturnPath) {
  // Grow past the inline capacity, then cancel back down to empty.
  LinearForm f;
  OracleForm o;
  for (uint64_t k = 1; k <= 8; ++k) {
    LinearForm g;
    g.PushTerm(k, static_cast<int64_t>(k));
    OracleForm og;
    og.terms[k] = static_cast<int64_t>(k);
    f.Add(g);
    o.Add(og);
  }
  ExpectMatchesOracle(f, o);
  EXPECT_EQ(f.size(), 8u);
  LinearForm neg = f;
  neg.ScaleBy(-1);
  f.Add(neg);
  EXPECT_TRUE(f.IsConstant());
  EXPECT_EQ(f.constant, 0);
}

// --------------------------------------------------------------------
// StateRegistry vs. a naive oracle

TEST(StateRegistryPropertyTest, PooledStorageMatchesNaiveInterning) {
  Rng rng(77);
  StateRegistry reg;
  std::vector<std::vector<QPair>> oracle = {{}};  // id 0 = ∅
  for (int step = 0; step < 2000; ++step) {
    // Random sorted duplicate-free pair set.
    std::vector<QPair> pairs;
    uint32_t used = 0;
    int n = static_cast<int>(rng.Uniform(0, 6));
    for (int i = 0; i < n; ++i) {
      int32_t node = static_cast<int32_t>(rng.Uniform(0, 7));
      if (used & (1u << node)) continue;
      used |= 1u << node;
      pairs.push_back(MakeQPair(node, static_cast<uint32_t>(
                                          rng.Uniform(0, 3))));
    }
    std::sort(pairs.begin(), pairs.end());

    int64_t naive_id = -1;
    for (size_t i = 0; i < oracle.size(); ++i) {
      if (oracle[i] == pairs) {
        naive_id = static_cast<int64_t>(i);
        break;
      }
    }
    StateId id = rng.Chance(0.5) ? reg.InternSorted(pairs)
                                 : reg.Intern(pairs);
    if (naive_id >= 0) {
      EXPECT_EQ(id, naive_id);
    } else {
      EXPECT_EQ(id, static_cast<StateId>(oracle.size()));
      oracle.push_back(pairs);
    }
    // The returned span matches the oracle's pair set.
    std::span<const QPair> got = reg.pairs(id);
    ASSERT_EQ(got.size(), pairs.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), pairs.begin()));
    for (QPair p : pairs) EXPECT_TRUE(reg.Contains(id, p));
    EXPECT_FALSE(reg.Contains(id, MakeQPair(15, 7)));
  }
  EXPECT_EQ(reg.size(), static_cast<int64_t>(oracle.size()));

  // Id stability: every previously interned set still maps to its id and
  // its pooled pairs survived all intervening growth.
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(reg.InternSorted(oracle[i]), static_cast<StateId>(i));
    std::span<const QPair> got = reg.pairs(static_cast<StateId>(i));
    ASSERT_EQ(got.size(), oracle[i].size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), oracle[i].begin()));
  }
}

TEST(StateRegistryTest, EmptyStateInvariant) {
  StateRegistry reg;
  EXPECT_EQ(reg.empty_state(), 0);
  EXPECT_EQ(reg.Intern(std::span<const QPair>{}), 0);
  EXPECT_EQ(reg.InternSorted(std::span<const QPair>{}), 0);
  EXPECT_TRUE(reg.pairs(0).empty());
  EXPECT_EQ(reg.size(), 1);
}

TEST(StateRegistryTest, UnsortedInternCanonicalizes) {
  StateRegistry reg;
  std::vector<QPair> fwd = {MakeQPair(1, 0), MakeQPair(2, 1),
                            MakeQPair(3, 0)};
  std::vector<QPair> rev(fwd.rbegin(), fwd.rend());
  EXPECT_EQ(reg.Intern(fwd), reg.Intern(rev));
}

// --------------------------------------------------------------------
// Transition scratch reuse and the steady-state zero-allocation claim

TEST(KernelTest, ScratchReuseMatchesFreshScratch) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 40, 3, 0.5);
    Query q = testing_util::RandomQuery(&rng, doc, 4, false);
    Result<CompiledQuery> cq = CompiledQuery::Compile(q);
    ASSERT_TRUE(cq.ok());
    // Same transitions through one reused scratch vs. the wrapper's
    // fresh scratch: identical states and counts.
    StateRegistry reg_a;
    StateRegistry reg_b;
    TransitionScratch<int64_t> scratch;
    AnnState<int64_t> acc_a;
    AnnState<int64_t> out_a;
    AnnState<int64_t> acc_b;
    for (int step = 0; step < 10; ++step) {
      LabelId label = static_cast<LabelId>(rng.Uniform(1, 3));
      CountingTransitionInto<Int64Ops>(cq.value(), &reg_a, acc_a,
                                       AnnState<int64_t>{}, label, true,
                                       &scratch, &out_a);
      std::swap(acc_a, out_a);
      acc_b = CountingTransition<Int64Ops>(cq.value(), &reg_b, acc_b,
                                           AnnState<int64_t>{}, label, true);
      ASSERT_EQ(reg_a.pairs(acc_a.state).size(),
                reg_b.pairs(acc_b.state).size());
      ASSERT_TRUE(std::equal(reg_a.pairs(acc_a.state).begin(),
                             reg_a.pairs(acc_a.state).end(),
                             reg_b.pairs(acc_b.state).begin()));
      ASSERT_EQ(acc_a.counts, acc_b.counts);
    }
  }
}

TEST(KernelTest, WarmEvaluatorReRunsWithoutHeapAllocation) {
  Document doc = GenerateDataset(DatasetId::kXmark, 5000, 3);
  SynopsisOptions sopts;
  sopts.kappa = 40;  // lossy: the star path must be allocation-free too
  Synopsis synopsis = Synopsis::Build(doc, sopts);
  NameTable names = synopsis.names();
  const char* kQueries[] = {"//item[./mailbox]//keyword", "//person//name",
                            "//open_auction[./bidder]//increase"};
  for (const char* text : kQueries) {
    Result<Query> q = ParseQuery(text, &names);
    ASSERT_TRUE(q.ok());
    Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
    ASSERT_TRUE(cq.ok());
    for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
      GrammarEvaluator eval(&synopsis.eval_cache(), &cq.value(),
                            &synopsis.label_maps(), mode);
      GrammarEvalResult cold = eval.Evaluate();
      GrammarEvalResult warm = eval.Evaluate();
      // Bit-identical result, no σ recomputation, zero heap allocations
      // on the steady-state path.
      EXPECT_EQ(warm.count, cold.count) << text;
      EXPECT_EQ(warm.accepted, cold.accepted) << text;
      EXPECT_EQ(warm.sigma_entries, 0) << text;
      EXPECT_EQ(warm.heap_allocs, 0) << text;
      EXPECT_EQ(warm.distinct_states, cold.distinct_states) << text;
      // Cold-pass counters are live.
      EXPECT_GT(cold.memo_probes, 0) << text;
      EXPECT_GT(cold.intern_probes, 0) << text;
      EXPECT_GT(cold.pool_pairs, 0) << text;
    }
  }
}

// --------------------------------------------------------------------
// Dense bitset states vs. the sorted-span oracle

/// Random per-node FOLLOWING masks over `size` query nodes, each with at
/// most 3 bits so the pair space always stays dense.
std::vector<uint32_t> RandomFollowingMasks(Rng* rng, int32_t size) {
  std::vector<uint32_t> masks(static_cast<size_t>(size), 0);
  for (int32_t n = 1; n < size; ++n) {
    for (int b = 0; b < 3; ++b) {
      if (rng->Chance(0.3)) {
        masks[static_cast<size_t>(n)] |=
            1u << rng->Uniform(1, static_cast<int64_t>(size) - 1);
      }
    }
  }
  return masks;
}

TEST(PairIndexerTest, RoundTripsAndPreservesSortedOrder) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    int32_t size = static_cast<int32_t>(rng.Uniform(2, 9));
    std::vector<uint32_t> masks = RandomFollowingMasks(&rng, size);
    PairIndexer idx{std::span<const uint32_t>(masks)};
    ASSERT_TRUE(idx.dense());
    QPair prev = 0;
    for (int32_t bit = 0; bit < idx.total_bits(); ++bit) {
      QPair p = idx.PairAt(bit);
      // Bit order equals packed-QPair sorted order (this is what lets the
      // dense kernel emit canonical spans without sorting).
      if (bit > 0) EXPECT_LT(prev, p);
      prev = p;
      ASSERT_TRUE(idx.Indexable(p));
      EXPECT_EQ(idx.IndexOf(p), bit);  // PairAt/IndexOf are inverse
    }
    // Node blocks tile [0, total_bits) with 2^|FOLLOWING(n)| bits each.
    int32_t expect_begin = 0;
    for (int32_t n = 0; n < size; ++n) {
      EXPECT_EQ(idx.NodeBegin(n), expect_begin);
      EXPECT_EQ(idx.NodeEnd(n) - idx.NodeBegin(n),
                1 << __builtin_popcount(masks[static_cast<size_t>(n)]));
      expect_begin = idx.NodeEnd(n);
    }
    EXPECT_EQ(expect_begin, idx.total_bits());
  }
}

TEST(StateBitsPropertyTest, WordOpsMatchSortedSpanOracle) {
  Rng rng(20260808);
  for (int trial = 0; trial < 30; ++trial) {
    int32_t size = static_cast<int32_t>(rng.Uniform(2, 8));
    std::vector<uint32_t> masks = RandomFollowingMasks(&rng, size);
    PairIndexer idx{std::span<const uint32_t>(masks)};
    ASSERT_TRUE(idx.dense());

    StateRegistry dense_reg;
    dense_reg.AttachIndexer(&idx);
    StateRegistry flat_reg;  // oracle: identical insertions, span path only
    ASSERT_TRUE(dense_reg.dense());
    ASSERT_FALSE(flat_reg.dense());

    std::vector<std::vector<QPair>> spans = {{}};
    for (int step = 0; step < 60; ++step) {
      // Random indexable sorted pair set: a subset of the dense bits.
      std::vector<QPair> pairs;
      for (int32_t bit = 0; bit < idx.total_bits(); ++bit) {
        if (rng.Chance(0.25)) pairs.push_back(idx.PairAt(bit));
      }
      StateId a = dense_reg.InternSorted(pairs);
      StateId b = flat_reg.InternSorted(pairs);
      ASSERT_EQ(a, b);  // dense images never perturb id assignment
      if (a == static_cast<StateId>(spans.size())) spans.push_back(pairs);

      const StateBits& bits = dense_reg.bits(a);
      EXPECT_EQ(bits.Popcount(), static_cast<int32_t>(pairs.size()));
      EXPECT_EQ(bits.Any(), !pairs.empty());
      for (int32_t bit = 0; bit < idx.total_bits(); ++bit) {
        QPair p = idx.PairAt(bit);
        bool in_span = std::binary_search(pairs.begin(), pairs.end(), p);
        EXPECT_EQ(bits.Test(bit), in_span);
        EXPECT_EQ(dense_reg.Contains(a, p), flat_reg.Contains(b, p));
        if (in_span) {
          // Rank == position in the sorted span: the lookup the dense
          // FindCount path uses in place of binary search.
          auto it = std::lower_bound(pairs.begin(), pairs.end(), p);
          EXPECT_EQ(bits.RankBelow(bit),
                    static_cast<int32_t>(it - pairs.begin()));
        }
      }
      // Pairs outside the indexer's space fall back to the span path.
      EXPECT_FALSE(dense_reg.Contains(a, MakeQPair(kMaxQueryNodes - 1, 0)));
    }

    // Word-wide union/intersection vs. std::set_union/set_intersection.
    int64_t max_id = static_cast<int64_t>(spans.size()) - 1;
    for (int step = 0; step < 40; ++step) {
      StateId i = static_cast<StateId>(rng.Uniform(0, max_id));
      StateId j = static_cast<StateId>(rng.Uniform(0, max_id));
      StateBits u = dense_reg.bits(i);
      u.OrWith(dense_reg.bits(j));
      StateBits n = dense_reg.bits(i);
      n.AndWith(dense_reg.bits(j));
      std::vector<QPair> want_u;
      std::vector<QPair> want_n;
      const auto& si = spans[static_cast<size_t>(i)];
      const auto& sj = spans[static_cast<size_t>(j)];
      std::set_union(si.begin(), si.end(), sj.begin(), sj.end(),
                     std::back_inserter(want_u));
      std::set_intersection(si.begin(), si.end(), sj.begin(), sj.end(),
                            std::back_inserter(want_n));
      std::vector<QPair> got_u;
      std::vector<QPair> got_n;
      for (int32_t bit = 0; bit < idx.total_bits(); ++bit) {
        if (u.Test(bit)) got_u.push_back(idx.PairAt(bit));
        if (n.Test(bit)) got_n.push_back(idx.PairAt(bit));
      }
      EXPECT_EQ(got_u, want_u);
      EXPECT_EQ(got_n, want_n);
      EXPECT_EQ(u.Popcount(), static_cast<int32_t>(want_u.size()));
      EXPECT_EQ(n.Popcount(), static_cast<int32_t>(want_n.size()));
    }
  }
}

TEST(KernelTest, DenseBitsetKernelMatchesSortedSpanOracle) {
  Rng rng(31337);
  int dense_seen = 0;
  for (int iter = 0; iter < 60; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, 60, 3, 0.5);
    Query q = testing_util::RandomQuery(&rng, doc, 5,
                                        /*with_order_axes=*/true);
    Result<CompiledQuery> cq = CompiledQuery::Compile(q);
    if (!cq.ok()) continue;  // too large after descendant expansion
    if (cq.value().indexer().dense()) ++dense_seen;
    for (bool dedup : {true, false}) {
      DocEvalResult dense = EvaluateOnDocument(cq.value(), doc, dedup,
                                               /*use_dense_states=*/true);
      DocEvalResult flat = EvaluateOnDocument(cq.value(), doc, dedup,
                                              /*use_dense_states=*/false);
      // Bit-identical outputs including the state-id space: the dense
      // kernel must reproduce the span kernel's interning order exactly.
      EXPECT_EQ(dense.count, flat.count);
      EXPECT_EQ(dense.accepted, flat.accepted);
      EXPECT_EQ(dense.distinct_states, flat.distinct_states);
    }
  }
  EXPECT_GT(dense_seen, 30);  // the trials actually exercised the bitset path
}

// --------------------------------------------------------------------
// Compiled-query cache

TEST(CompiledCacheTest, RepeatedShapesHitAndStayBitIdentical) {
  struct Case {
    DatasetId dataset;
    const char* queries[3];
  };
  const Case kCases[] = {
      {DatasetId::kXmark,
       {"//item[./mailbox]//keyword", "//person//name",
        "//open_auction[./bidder]//increase"}},
      {DatasetId::kDblp,
       {"//article//author", "//inproceedings[./title]",
        "//article[./title]//author"}},
  };
  for (const Case& c : kCases) {
    Document doc = GenerateDataset(c.dataset, 1500, 3);
    for (int32_t kappa : {0, 30}) {
      SynopsisOptions sopts;
      sopts.kappa = kappa;
      SelectivityEstimator est(Synopsis::Build(doc, sopts));
      const CompiledQueryCache& cache = est.synopsis().query_cache();
      std::vector<SelectivityEstimate> cold;
      for (const char* text : c.queries) {
        Result<SelectivityEstimate> r = est.Estimate(text);
        ASSERT_TRUE(r.ok()) << text;
        cold.push_back(r.value());
      }
      EXPECT_EQ(cache.misses(), 3);
      EXPECT_EQ(cache.hits(), 0);
      EXPECT_EQ(cache.size(), 3);
      // Every repeat is served from the cache and reproduces the cold
      // compile's estimate bit for bit.
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < 3; ++i) {
          Result<SelectivityEstimate> r = est.Estimate(c.queries[i]);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(r.value().lower, cold[i].lower) << c.queries[i];
          EXPECT_EQ(r.value().upper, cold[i].upper) << c.queries[i];
        }
      }
      EXPECT_EQ(cache.misses(), 3);
      EXPECT_EQ(cache.hits(), 9);
    }
  }
}

TEST(CompiledCacheTest, BatchCompilesEachDistinctShapeOnce) {
  Document doc = GenerateDataset(DatasetId::kXmark, 2000, 3);
  SynopsisOptions sopts;
  sopts.kappa = 20;
  SelectivityEstimator est(Synopsis::Build(doc, sopts));
  const char* kShapes[] = {"//item//keyword", "//person//name"};
  std::vector<std::string_view> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(kShapes[i % 2]);
  std::vector<Result<SelectivityEstimate>> out =
      est.EstimateBatch(std::span<const std::string_view>(batch), 1);
  ASSERT_EQ(out.size(), batch.size());
  for (const auto& r : out) ASSERT_TRUE(r.ok());
  // k distinct shapes in the batch cost exactly k compiles.
  EXPECT_EQ(est.synopsis().query_cache().misses(), 2);
  EXPECT_EQ(est.synopsis().query_cache().hits(), 10);
  EXPECT_EQ(est.synopsis().query_cache().size(), 2);
  for (size_t i = 2; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value().lower, out[i % 2].value().lower);
    EXPECT_EQ(out[i].value().upper, out[i % 2].value().upper);
  }
}

TEST(CompiledCacheTest, UnsatisfiableAndCopySemantics) {
  Document doc = GenerateDataset(DatasetId::kXmark, 800, 3);
  SynopsisOptions sopts;
  Synopsis synopsis = Synopsis::Build(doc, sopts);
  NameTable names = synopsis.names();
  // An unsatisfiable query (conflicting tests on a parent-merged node)
  // answers [0, 0] without polluting the cache.
  Result<Query> unsat = ParseQuery("//item/keyword[./parent::person]", &names);
  ASSERT_TRUE(unsat.ok());
  Result<std::shared_ptr<const PreparedQuery>> pq =
      synopsis.query_cache().Prepare(unsat.value());
  ASSERT_TRUE(pq.ok());
  EXPECT_TRUE(pq.value()->unsatisfiable);
  EXPECT_EQ(synopsis.query_cache().size(), 0);
  // Warm the cache, then copy: the copy starts cold (its NameTable is a
  // different object, so cached keys must not carry over).
  Result<Query> ok_q = ParseQuery("//item//keyword", &names);
  ASSERT_TRUE(ok_q.ok());
  ASSERT_TRUE(synopsis.query_cache().Prepare(ok_q.value()).ok());
  EXPECT_EQ(synopsis.query_cache().size(), 1);
  Synopsis copy = synopsis;
  EXPECT_EQ(copy.query_cache().size(), 0);
  EXPECT_EQ(copy.query_cache().hits(), 0);
  EXPECT_EQ(synopsis.query_cache().size(), 1);  // source keeps its entries
}

TEST(KernelTest, CountersSeparateColdFromWarm) {
  Document doc = GenerateDataset(DatasetId::kXmark, 2000, 3);
  SynopsisOptions sopts;
  sopts.kappa = 0;
  Synopsis synopsis = Synopsis::Build(doc, sopts);
  NameTable names = synopsis.names();
  Result<Query> q = ParseQuery("//item//keyword", &names);
  ASSERT_TRUE(q.ok());
  Result<CompiledQuery> cq = CompiledQuery::Compile(q.value());
  ASSERT_TRUE(cq.ok());
  GrammarEvaluator eval(&synopsis.eval_cache(), &cq.value(),
                        &synopsis.label_maps(), BoundMode::kLower);
  GrammarEvalResult cold = eval.Evaluate();
  GrammarEvalResult warm = eval.Evaluate();
  // Warm probes are the memo-served replay: strictly fewer than cold,
  // and every warm memo probe is a hit.
  EXPECT_LT(warm.memo_probes, cold.memo_probes);
  EXPECT_EQ(warm.memo_hits, warm.memo_probes);
  // The state space did not grow on the warm pass.
  EXPECT_EQ(warm.pool_pairs, cold.pool_pairs);
  EXPECT_EQ(warm.distinct_states, cold.distinct_states);
}

// --------------------------------------------------------------------
// Pinned kernel trace

/// The kernel-counter trace of one fresh evaluation.
struct KernelTrace {
  int64_t count;
  int64_t sigma_entries;
  int64_t distinct_states;
  int64_t memo_probes;
  int64_t memo_hits;
  int64_t intern_probes;
  int64_t intern_hits;
  int64_t pool_pairs;

  bool operator==(const KernelTrace&) const = default;
};

std::string TraceRow(const KernelTrace& t) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld}",
                static_cast<long long>(t.count),
                static_cast<long long>(t.sigma_entries),
                static_cast<long long>(t.distinct_states),
                static_cast<long long>(t.memo_probes),
                static_cast<long long>(t.memo_hits),
                static_cast<long long>(t.intern_probes),
                static_cast<long long>(t.intern_hits),
                static_cast<long long>(t.pool_pairs));
  return buf;
}

// The walk order (post-order per rule, σ keys interned at first call) and
// the intern order of states are part of the kernel's contract: state
// ids, memo ids and every counter below follow from them. These traces
// were recorded before the operand-stack walk replaced per-node value
// slots and must not move with changes to the kernel's storage.
TEST(KernelTest, PinnedTraceOnXmark) {
  Document doc = GenerateDataset(DatasetId::kXmark, 4000, 7);
  SynopsisOptions sopts;
  sopts.kappa = 40;
  Synopsis synopsis = Synopsis::Build(doc, sopts);
  NameTable names = synopsis.names();
  const char* kQueries[] = {
      "//item[./mailbox]//keyword",       "//person//name",
      "//open_auction[./bidder]//increase", "/site/regions//item/name",
      "//category//text",                 "//person[./address]/emailaddress",
      "//closed_auction//*",              "//description//keyword",
  };
  // {count, sigma_entries, distinct_states, memo_probes, memo_hits,
  //  intern_probes, intern_hits, pool_pairs}, lower then upper bound.
  const KernelTrace kPinned[][2] = {
      {{24, 619, 8, 1878, 1259, 311, 304, 12},
       {2031, 648, 8, 1934, 1286, 297, 290, 23}},
      {{36, 473, 6, 1556, 1083, 224, 219, 9},
       {2216, 537, 6, 1688, 1151, 236, 231, 15}},
      {{28, 479, 7, 1570, 1091, 226, 220, 11},
       {2118, 558, 7, 1729, 1171, 254, 248, 22}},
      {{123, 471, 7, 1552, 1081, 222, 216, 9},
       {4748, 565, 7, 1745, 1180, 259, 253, 21}},
      {{10, 515, 6, 1649, 1134, 250, 245, 9},
       {2604, 589, 6, 1803, 1214, 271, 266, 15}},
      {{26, 471, 7, 1550, 1079, 222, 216, 8},
       {1441, 543, 7, 1700, 1157, 240, 234, 16}},
      {{150, 547, 7, 1715, 1168, 274, 268, 13},
       {11351, 574, 6, 1762, 1188, 269, 264, 15}},
      {{42, 582, 6, 1796, 1214, 286, 281, 9},
       {2120, 593, 6, 1815, 1222, 263, 258, 15}},
  };
  ASSERT_EQ(std::size(kPinned), std::size(kQueries));
  CompiledQueryCache cache;
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    Result<Query> q = ParseQuery(kQueries[qi], &names);
    ASSERT_TRUE(q.ok()) << kQueries[qi];
    Result<std::shared_ptr<const PreparedQuery>> pq = cache.Prepare(q.value());
    ASSERT_TRUE(pq.ok()) << kQueries[qi];
    for (int b = 0; b < 2; ++b) {
      const BoundMode mode = b == 0 ? BoundMode::kLower : BoundMode::kUpper;
      const CompiledQuery& cq =
          b == 0 ? pq.value()->lower : UpperQueryOf(*pq.value());
      GrammarEvaluator eval(&synopsis.eval_cache(), &cq,
                            &synopsis.label_maps(), mode);
      GrammarEvalResult r = eval.Evaluate();
      ASSERT_TRUE(r.status.ok());
      KernelTrace got{r.count,         r.sigma_entries, r.distinct_states,
                      r.memo_probes,   r.memo_hits,     r.intern_probes,
                      r.intern_hits,   r.pool_pairs};
      EXPECT_EQ(got, kPinned[qi][b])
          << kQueries[qi] << (b == 0 ? " lower" : " upper")
          << ": got " << TraceRow(got);
    }
  }
}

}  // namespace
}  // namespace xmlsel
