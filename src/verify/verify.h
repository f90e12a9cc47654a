// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Cross-layer invariant verification (see DESIGN.md, "Verification &
// static analysis"). One Status-returning checker per layer, each with a
// layer- and node-pinpointing diagnostic, so a corruption anywhere in the
// document → grammar → lossy → automaton → storage pipeline is caught at
// the boundary where it happened, not three layers later as a wrong
// estimate.
//
// Unlike SltGrammar::Validate() (which aborts on programmer error), these
// checkers return a rich Status: they are meant to audit data that may
// genuinely be corrupt — decoded synopses, mutated fixtures in the
// verify_test mutation harness, state reached through long update
// sequences — and to run inside tools (`xmlsel_tool verify`) and CI.
//
// The header only forward-declares the checked types, so any layer can
// include it to place an XMLSEL_VERIFY_STATUS boundary check without
// pulling in upper-layer headers.

#ifndef XMLSEL_VERIFY_VERIFY_H_
#define XMLSEL_VERIFY_VERIFY_H_

#include <string>
#include <vector>

#include "xmlsel/common.h"
#include "xmlsel/status.h"

namespace xmlsel {

class CompiledQuery;
class Document;
class MappedSynopsis;
class RuleProvider;
class ServingCatalog;
class SigmaMemo;
class SltGrammar;
class StateRegistry;
class Synopsis;
struct LabelMaps;
struct SynopsisOptions;

// ---------------------------------------------------------------------------
// xml layer

/// Document arena well-formedness: the virtual root is node 0 with the
/// reserved label; parent / first_child / last_child / sibling links are
/// mutually consistent; the child graph is a tree (no cycles, no sharing);
/// every live node is reachable from the root and counted exactly once by
/// element_count(); tombstones are unreachable; labels resolve in the name
/// table; the binary view bin(D) covers exactly the live elements.
Status VerifyDocument(const Document& doc);

// ---------------------------------------------------------------------------
// grammar layer

/// SLT well-formedness per Definition 1 (the Status-returning analogue of
/// SltGrammar::Validate): rank consistency at every call site, rule
/// references strictly earlier (acyclic by construction), parameters used
/// linearly and in pre-order, terminal arity 2, every RHS a tree, star
/// stats indices in range and (h, s) internally sane. `label_count` > 0
/// additionally bounds terminal labels (pass names.size(); -1 skips).
Status VerifyGrammar(const SltGrammar& g, int32_t label_count = -1);

/// Every rule is reachable from the start symbol. A postcondition of the
/// DAG and BPLEX compressors — deliberately *not* part of VerifyGrammar,
/// because κ-lossy deletion leaves deleted rules unreachable in place.
Status VerifyAllRulesReachable(const SltGrammar& g);

/// Structural equality of two grammars (rule-by-rule pre-order walk; RHS
/// arena ids may differ, star nodes compare their (h, s) by value).
/// Returns a pinpointing diagnostic for the first difference.
Status CompareGrammars(const SltGrammar& a, const SltGrammar& b);

/// Fingerprint of a binary tree: a mixed hash plus the exact node count
/// (the count doubles as a collision-independent size cross-check). Used
/// by the expansion-identity witness; exposed so the streaming front end
/// can fingerprint its cons DAG without ever materializing a Document.
struct BinaryTreeFp {
  uint64_t hash = 0;
  int64_t size = 0;
  bool operator==(const BinaryTreeFp& o) const {
    return hash == o.hash && size == o.size;
  }
};

/// fp(⊥) — the fingerprint of the empty binary tree.
BinaryTreeFp NullTreeFp();

/// fp(label(left, right)) — one interior-node mixing step.
BinaryTreeFp CombineFp(LabelId label, const BinaryTreeFp& left,
                       const BinaryTreeFp& right);

/// DAG/BPLEX postcondition: the expansion of `g` is tree-identical to
/// bin(D), established by a hash-based witness — per-call memoized
/// fingerprints on the grammar side against a post-order fingerprint of
/// the document's binary view — without materializing the expansion.
/// Also cross-checks the analysis layer: the start rule's generated size
/// must equal the document's element count. `g` must be lossless.
Status VerifyExpansion(const SltGrammar& g, const Document& doc);

/// Same witness against a precomputed document-side fingerprint (the
/// streaming build path computes `doc_fp` over its cons DAG, one
/// CombineFp per distinct subtree). `element_count` feeds the analysis
/// cross-check.
Status VerifyExpansionFp(const SltGrammar& g, const BinaryTreeFp& doc_fp,
                         int64_t element_count);

/// κ-lossy soundness: `lossy` must be exactly what MakeLossy(lossless,
/// kappa) derives — every star's (h, s) agrees with a recomputation over
/// the deleted rules — and the lossy layer must preserve the generated
/// size of the lossless layer exactly (star nodes account for their
/// hidden nodes), which is what makes lower ≤ exact ≤ upper enforceable.
Status VerifyLossy(const SltGrammar& lossy, const SltGrammar& lossless,
                   int32_t kappa);

/// Intrinsic label-map invariants: both maps are label_count × label_count
/// and parent is the transpose of child (they encode one relation).
Status VerifyLabelMaps(const LabelMaps& maps);

/// The maps cover the document's actual parent/child label pairs: equal
/// to a fresh ComputeLabelMaps(doc) when `exact` (fresh build), a
/// superset otherwise (maps merged across incremental updates may only
/// over-approximate — never drop a real edge).
Status VerifyLabelMapsCoverDocument(const LabelMaps& maps,
                                    const Document& doc, bool exact);

// ---------------------------------------------------------------------------
// automaton / kernel layer

/// State-registry audit: record spans tile the flat pool contiguously,
/// every span is strictly sorted (sorted + deduped), pairs reference valid
/// query nodes with F-masks inside the node's FOLLOWING frontier (when
/// `cq` is given), and every state is rehashable — probing the intern
/// table with its own span resolves back to its id.
Status VerifyStateRegistry(const StateRegistry& reg,
                           const CompiledQuery* cq = nullptr);

/// σ-memo audit: every key is [rule, param states…] with the rule index in
/// range and exactly rank(rule) parameter states, each resolving in the
/// registry; keys re-probe to their own entry; every σ is ready with one
/// counter per root-state pair; and all linear forms are canonical
/// (strictly sorted variables over in-range parameters, positive
/// coefficients) with every value saturating only at kCountSaturate.
Status VerifySigmaMemo(const SigmaMemo& memo, const SltGrammar& g,
                       const StateRegistry& reg,
                       const CompiledQuery* cq = nullptr);

/// Same audit with rule ranks resolved through a RuleProvider — the form
/// used after serving-path evaluations, where the grammar may never have
/// been materialized (memoized rules are already in the provider's decode
/// cache, so rank lookups are cheap).
Status VerifySigmaMemo(const SigmaMemo& memo, const RuleProvider& provider,
                       const StateRegistry& reg,
                       const CompiledQuery* cq = nullptr);

// ---------------------------------------------------------------------------
// storage layer

/// Packed round-trip: decode(encode(g)) is structurally identical to `g`,
/// re-encoding the decoded grammar reproduces the byte stream bit-exactly,
/// and PackedEncodedSize agrees with the actual encoding.
Status VerifyPackedRoundTrip(const SltGrammar& g, int32_t label_count);

/// Mapped-image audit (storage/mapped.h): header and section bounds,
/// payload checksum, rule-directory entries, every decoded rule
/// re-encoding to its payload slice bit-exactly, every decode-cache slot
/// agreeing with the flattened re-encoded rule and with an uncached
/// decode, both grammar layers well-formed, label maps intrinsic
/// invariants, and label totals summing to the element total.
Status VerifyMappedImage(const MappedSynopsis& image);

/// End-to-end mapped round-trip: BuildMappedImage(synopsis) must open,
/// pass VerifyMappedImage, and thaw back into a synopsis whose layers,
/// maps, names, and totals are identical to the original.
Status VerifyMappedRoundTrip(const Synopsis& synopsis);

// ---------------------------------------------------------------------------
// serving layer

/// Serving-catalog audit: every listed tenant resolves through Acquire to
/// a snapshot with a positive version and internally consistent totals
/// (label totals sum to the element total, the name table covers the
/// base label count); a `//*` probe query estimated on each snapshot
/// brackets the element total (lower ≤ total ≤ upper — the §5.4
/// guarantee applied to the query matching every element); and the
/// reader fast path took zero lock acquisitions across all the probes
/// (the counted-mutex audit, same gate the serving bench enforces).
Status VerifyServingCatalog(const ServingCatalog& catalog);

/// Audits a built synopsis: both grammar layers well-formed, the lossless
/// layer star-free, the lossy layer consistent with a recomputation (so
/// the lossy layer must be fresh — call after Build / RecomputeLossy, not
/// between deferred updates), label maps intrinsic invariants, packed
/// round-trip of the stored layer, and label totals consistent with the
/// grammar analysis.
Status VerifySynopsis(const Synopsis& synopsis);

/// Outcome of a full-pipeline verification run: one entry per layer.
struct VerifyReport {
  struct Entry {
    std::string layer;
    Status status;
    double millis = 0.0;
  };
  std::vector<Entry> entries;

  bool ok() const;
  /// One line per layer: "layer: OK (1.2 ms)" or the diagnostic.
  std::string ToString() const;
};

/// Builds every layer from `doc` and runs all checkers: document audit,
/// XML write→parse round-trip, DAG and BPLEX expansion witnesses,
/// synopsis + label-map audit, automaton/kernel state audits over a small
/// generated workload (with an exact-oracle bounds check on documents up
/// to a few thousand elements), and packed round-trips of both layers.
/// Never aborts; failures are reported per layer.
VerifyReport VerifyPipeline(const Document& doc,
                            const SynopsisOptions& options);

}  // namespace xmlsel

/// Runs a Status-returning checker at a verification level and aborts
/// with its diagnostic on failure. Levels above XMLSEL_VERIFY_LEVEL
/// compile to nothing (the condition is a compile-time constant), so
/// Release builds (level 0) pay nothing at the call sites.
#define XMLSEL_VERIFY_STATUS(level, expr)                           \
  do {                                                              \
    if ((level) <= XMLSEL_VERIFY_LEVEL) {                           \
      ::xmlsel::Status _xmlsel_vst = (expr);                        \
      if (!_xmlsel_vst.ok()) {                                      \
        ::xmlsel::internal::CheckFailed(                            \
            __FILE__, __LINE__, _xmlsel_vst.ToString().c_str());    \
      }                                                             \
    }                                                               \
  } while (0)

#endif  // XMLSEL_VERIFY_VERIFY_H_
