// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Zero-copy packed serving (§7 taken to disk): a versioned, mmap-able
// synopsis image whose rules stay in their packed E(R_i) form until a
// query actually touches them. The file holds both synopsis layers —
// the lossless grammar (large; only read when thawing or verifying) and
// the κ-lossy serving grammar — each as a fixed-width rule directory
// plus a byte-aligned per-rule payload, so opening a synopsis is one
// mmap + O(header) validation instead of a full decode. A MappedSynopsis
// owns nothing but the mapping and a lazily populated per-rule decode
// cache; the evaluator consumes it through the RuleProvider interface
// (automaton/eval_cache.h) and produces results bit-identical to the
// eager path.
//
// Image layout (all integers little-endian; sections 4096-aligned):
//
//   MappedImageHeader                     magic, version, counts, checksum
//   section 0  names        label_count × (u32 length + bytes)
//   section 1  label_totals label_count × i64
//   section 2  label_maps   child bit-matrix, one row per label
//   section 3  stars[0]     lossless star table (empty in practice)
//   section 4  dir[0]       lossless rule directory (16 B entries)
//   section 5  payload[0]   lossless per-rule E(R_i) streams
//   section 6  stars[1]     lossy star table {height, pad, size}
//   section 7  dir[1]       lossy rule directory
//   section 8  payload[1]   lossy per-rule E(R_i) streams
//
// The payload checksum (FNV-1a 64 over everything after the header) is
// verified on demand (MappedOpenOptions::verify_checksum or
// VerifyMappedImage), not on every open — the per-rule decoder
// bounds-checks every read, so a flipped payload bit surfaces as a
// kCorruption status at first touch, never as UB.
//
// Each layer serves queries through a decode cache: Rule() materializes
// a rule's flat eval form (FlatRuleData) on first touch into a per-rule
// slot, walking the rule's E(R_i) stream in place with a PackedRuleCursor.
// Slots are not grow-only: EvictToBudget runs a CLOCK (second-chance)
// sweep in reachability-pruned order — statically unreachable rules
// first, then reachable ones leaf-to-root — and retires victims through
// the global RCU domain (xmlsel/rcu.h), so readers holding an
// RcuDomain::ReadGuard (every EvaluateBound does) can keep using a view
// across a concurrent eviction. resident_bytes accounting is exact:
// every decoded rule is charged sizeof(MappedDecodedRule) plus its
// vectors' *capacities* (AuditDecodeCache re-derives the totals).

#ifndef XMLSEL_STORAGE_MAPPED_H_
#define XMLSEL_STORAGE_MAPPED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "automaton/eval_cache.h"
#include "estimator/synopsis.h"
#include "grammar/lossy.h"
#include "grammar/slt.h"
#include "storage/packed_cursor.h"
#include "xml/name_table.h"
#include "xmlsel/mutex.h"
#include "xmlsel/status.h"
#include "xmlsel/thread_annotations.h"

namespace xmlsel {

/// Section indices within MappedImageHeader's offset/size tables.
enum MappedSection : int {
  kSecNames = 0,
  kSecLabelTotals = 1,
  kSecLabelMaps = 2,
  kSecStars0 = 3,    ///< lossless layer
  kSecDir0 = 4,
  kSecPayload0 = 5,
  kSecStars1 = 6,    ///< lossy (serving) layer
  kSecDir1 = 7,
  kSecPayload1 = 8,
  kMappedSectionCount = 9,
};

/// On-disk header. Plain trivially-copyable struct so it can be memcpy-ed
/// out of the (arbitrarily aligned) mapping; never read in place.
struct MappedImageHeader {
  char magic[8];           ///< "XSELSYN1"
  uint32_t version;        ///< format version, currently 1
  uint32_t header_bytes;   ///< sizeof(MappedImageHeader) at write time
  int32_t kappa;           ///< SynopsisOptions::kappa at pack time
  int32_t deleted;         ///< productions deleted by the lossy pass
  int32_t label_count;     ///< NameTable size incl. the reserved root
  int32_t maps_label_count;  ///< LabelMaps dimension (≤ label_count)
  int32_t rule_count[2];   ///< [0] lossless, [1] lossy
  int32_t star_count[2];   ///< star-table sizes per layer
  int64_t element_total;   ///< Σ label_totals
  uint64_t file_bytes;     ///< total image size; must equal the file size
  uint64_t payload_checksum;  ///< FNV-1a 64 over [header_bytes, file_bytes)
  uint64_t section_offset[kMappedSectionCount];
  uint64_t section_bytes[kMappedSectionCount];
};
static_assert(sizeof(MappedImageHeader) == 216,
              "on-disk header layout changed — bump the format version");
static_assert(std::is_trivially_copyable_v<MappedImageHeader>);

/// One rule-directory entry: where the rule's E(R_i) stream lives inside
/// its layer's payload section, how many bits it spans, and its rank
/// (redundant with the stream's unary prefix; the decoder cross-checks
/// them, and the directory alone suffices to key the σ-memo).
struct MappedRuleEntry {
  uint64_t offset;   ///< byte offset within the payload section
  uint32_t bit_len;  ///< exact stream length in bits
  int32_t rank;
};
static_assert(sizeof(MappedRuleEntry) == 16);
static_assert(std::is_trivially_copyable_v<MappedRuleEntry>);

/// One star-table entry on disk.
struct MappedStarEntry {
  int32_t height;
  int32_t pad;  ///< always 0
  int64_t size;
};
static_assert(sizeof(MappedStarEntry) == 16);
static_assert(std::is_trivially_copyable_v<MappedStarEntry>);

struct MappedOpenOptions {
  /// Verify the payload checksum at open (one sequential pass over the
  /// file — defeats the lazy-open win, so off by default; corruption is
  /// still caught structurally at first decode).
  bool verify_checksum = false;
};

/// Decode-cache counters of one layer.
struct MappedCacheStats {
  int64_t hits = 0;           ///< Rule() calls served from the cache
  int64_t misses = 0;         ///< Rule() calls that had to decode
  int64_t decoded_rules = 0;  ///< distinct rules currently decoded
  int64_t resident_bytes = 0; ///< exact heap held by decoded rules
  int64_t evictions = 0;      ///< rules evicted by EvictToBudget, lifetime
  int64_t total_rules = 0;
};

/// Residency of one opened image: what the lazy decoder has actually
/// materialized, per layer. This is the per-tenant memory answer the
/// serving catalog and `xmlsel_tool serve` report — a mostly-cold tenant
/// shows decoded_rules ≪ total_rules and a few KB resident while its
/// image may be megabytes on disk.
struct MappedSynopsisStats {
  MappedCacheStats lossless;
  MappedCacheStats lossy;
  uint64_t file_bytes = 0;

  int64_t decoded_rules() const {
    return lossless.decoded_rules + lossy.decoded_rules;
  }
  int64_t resident_bytes() const {
    return lossless.resident_bytes + lossy.resident_bytes;
  }
};

/// Serializes a synopsis into a complete image (header + all sections).
std::vector<uint8_t> BuildMappedImage(const Synopsis& synopsis);

/// Writes BuildMappedImage(synopsis) to `path` (atomically via a
/// temporary + rename, so a crashed pack never leaves a torn image).
Status PackSynopsisToFile(const Synopsis& synopsis, const std::string& path);

/// One lazily decoded rule: the flat eval form a GrammarEvaluator needs
/// (what SynopsisEvalCache precomputes eagerly for every rule, built here
/// only for rules actually touched), plus its exact heap footprint —
/// sizeof(MappedDecodedRule) + data.HeapBytes(), frozen at install time.
struct MappedDecodedRule {
  FlatRuleData data;
  int64_t resident_bytes = 0;
};

/// An opened synopsis image. Immutable and internally synchronized: any
/// number of threads may evaluate queries against it concurrently. Not
/// movable (the decode-cache slots are atomics and the layers hand out
/// interior pointers), so it lives behind unique_ptr/shared_ptr.
class MappedSynopsis {
 public:
  /// One grammar layer served straight from the mapping. Rule() decodes
  /// on first touch and caches the decoded rule in a per-rule slot
  /// (first-writer-wins; a losing racer's copy is discarded). Slots may
  /// be evicted by EvictToBudget; concurrent readers survive an eviction
  /// only while inside an RcuDomain::ReadGuard — callers outside a guard
  /// (tests, verification, Thaw) must not race eviction.
  class Layer final : public RuleProvider {
   public:
    ~Layer() override;

    int32_t rule_count() const override {
      return static_cast<int32_t>(ranks_.size());
    }
    std::span<const StarStats> star_stats() const override { return stars_; }
    RuleEvalData Rule(int32_t rule) const override;
    Status error() const override XMLSEL_EXCLUDES(error_mu_);

    /// Decodes one rule into caller-owned flat storage, bypassing the
    /// cache (the cache's miss path, grammar assembly and verification
    /// use this).
    Status DecodeRuleFlat(int32_t rule, FlatRuleData* out) const;

    MappedCacheStats cache_stats() const;

    /// Evicts decoded rules (CLOCK second-chance, reachability-pruned
    /// sweep order) until resident_bytes <= target_bytes or every slot
    /// has been given its second chance. Victims are RCU-retired, not
    /// freed: guarded readers stay safe; memory returns via
    /// ReclaimEvicted once the grace period passes. Returns the number
    /// of rules evicted.
    int64_t EvictToBudget(int64_t target_bytes) const
        XMLSEL_EXCLUDES(evict_mu_);

    /// Frees retired rules whose RCU grace period has passed. Returns
    /// the number freed.
    int64_t ReclaimEvicted() const XMLSEL_EXCLUDES(evict_mu_);

    /// Rules statically reachable from the start rule, computed on first
    /// use by decoding each reachable rule once and following its calls. Evaluation of any
    /// satisfiable query touches exactly this set, so the lazy decoder's
    /// decoded_rules converges to it.
    int32_t ReachableRuleCount() const XMLSEL_EXCLUDES(evict_mu_);

    /// Audits the decode cache: recounts slots and re-derives every
    /// resident rule's exact footprint, comparing both against the
    /// atomic counters. Only meaningful when no decode/eviction is in
    /// flight (the caller quiesces; the lock here only excludes the
    /// enforcer).
    Status AuditDecodeCache() const XMLSEL_EXCLUDES(evict_mu_);

    /// Directory access for auditing.
    uint64_t rule_offset(int32_t rule) const {
      return offsets_[static_cast<size_t>(rule)];
    }
    uint32_t rule_bit_len(int32_t rule) const {
      return bit_lens_[static_cast<size_t>(rule)];
    }
    int32_t rule_rank(int32_t rule) const {
      return ranks_[static_cast<size_t>(rule)];
    }
    std::span<const uint8_t> payload() const {
      return {payload_, static_cast<size_t>(payload_bytes_)};
    }
    int32_t label_count() const { return label_count_; }
    const LabelMaps* maps() const { return maps_; }
    std::span<const int32_t> ranks() const { return ranks_; }

   private:
    friend class MappedSynopsis;
    Layer() = default;

    struct RetiredRule {
      const MappedDecodedRule* rule;
      uint64_t epoch;  ///< RcuDomain retire stamp
    };

    void SetError(const Status& st) const XMLSEL_EXCLUDES(error_mu_);
    /// Computes sweep_order_/reachable_count_ on first use: BFS over the
    /// packed call graph from the start rule, then unreachable rules
    /// (ascending) followed by reachable ones (ascending = leaves before
    /// the start rule, since calls only reference earlier rules).
    void EnsureSweepOrderLocked() const XMLSEL_REQUIRES(evict_mu_);
    int64_t ReclaimLocked() const XMLSEL_REQUIRES(evict_mu_);

    const uint8_t* payload_ = nullptr;
    uint64_t payload_bytes_ = 0;
    int32_t label_count_ = 0;
    const LabelMaps* maps_ = nullptr;
    std::vector<uint64_t> offsets_;
    std::vector<uint32_t> bit_lens_;
    std::vector<int32_t> ranks_;
    std::vector<StarStats> stars_;

    mutable std::vector<std::atomic<const MappedDecodedRule*>> slots_;
    mutable std::vector<std::atomic<uint8_t>> ref_bits_;  ///< CLOCK bits
    mutable std::atomic<int64_t> hits_{0};
    mutable std::atomic<int64_t> misses_{0};
    mutable std::atomic<int64_t> decoded_rules_{0};
    mutable std::atomic<int64_t> resident_bytes_{0};
    mutable std::atomic<int64_t> evictions_{0};
    mutable Mutex error_mu_;
    mutable Status error_ XMLSEL_GUARDED_BY(error_mu_);
    mutable Mutex evict_mu_;  ///< serializes enforcers, not readers
    mutable std::vector<int32_t> sweep_order_ XMLSEL_GUARDED_BY(evict_mu_);
    mutable int32_t reachable_count_ XMLSEL_GUARDED_BY(evict_mu_) = -1;
    mutable size_t clock_hand_ XMLSEL_GUARDED_BY(evict_mu_) = 0;
    mutable std::vector<RetiredRule> retired_ XMLSEL_GUARDED_BY(evict_mu_);
  };

  ~MappedSynopsis();
  MappedSynopsis(const MappedSynopsis&) = delete;
  MappedSynopsis& operator=(const MappedSynopsis&) = delete;

  /// mmaps `path` (falling back to a plain read if mmap is unavailable)
  /// and validates the header, section bounds, names, directories, and
  /// star tables. Never trusts the bytes: every malformed input yields a
  /// kCorruption status.
  static Result<std::unique_ptr<MappedSynopsis>> Open(
      const std::string& path, const MappedOpenOptions& options = {});

  /// Same validation over an in-memory image (tests, corruption drills).
  /// The buffer is moved in and owned by the returned object.
  static Result<std::unique_ptr<MappedSynopsis>> FromBuffer(
      std::vector<uint8_t> bytes, const MappedOpenOptions& options = {});

  const MappedImageHeader& header() const { return header_; }
  const NameTable& names() const { return names_; }
  const LabelMaps& label_maps() const { return maps_; }
  const std::vector<int64_t>& label_totals() const { return label_totals_; }
  int64_t element_total() const { return header_.element_total; }
  int32_t kappa() const { return header_.kappa; }
  int32_t deleted_productions() const { return header_.deleted; }
  uint64_t file_bytes() const { return header_.file_bytes; }

  const Layer& lossless_layer() const { return layers_[0]; }
  const Layer& lossy_layer() const { return layers_[1]; }
  /// The provider queries are served from (the lossy layer).
  const RuleProvider& serving_provider() const { return layers_[1]; }

  /// Decode-cache residency of both layers plus the image size — the
  /// public per-tenant memory accounting surface (the per-layer counters
  /// were previously reachable only through the layer objects).
  MappedSynopsisStats Stats() const {
    return {layers_[0].cache_stats(), layers_[1].cache_stats(),
            header_.file_bytes};
  }

  /// Evicts decoded rules across both layers until the image's total
  /// resident_bytes fits `budget_bytes`. The lossless layer (cold by
  /// design — only thaw/verify ever touch it) is drained first; the
  /// serving layer absorbs whatever budget remains. Returns the number
  /// of rules evicted. Thread-safe against concurrent guarded readers.
  int64_t EnforceDecodeBudget(int64_t budget_bytes) const;

  /// Frees evicted rules whose RCU grace period has passed (both
  /// layers). Returns the number freed.
  int64_t ReclaimEvictedRules() const;

  /// Recomputes the payload checksum and compares it to the header.
  Status VerifyChecksum() const;

  /// Eagerly decodes one layer into a grammar (0 = lossless, 1 = lossy),
  /// bypassing the decode cache.
  Result<SltGrammar> AssembleGrammar(int layer) const;

  /// Full eager rehydration into an in-memory Synopsis (both layers,
  /// maps, names, totals) — the escape hatch back to the mutable world
  /// (updates, RecomputeLossy).
  Result<Synopsis> Thaw() const;

 private:
  MappedSynopsis() = default;

  /// Parses + validates `data` (which outlives the object) and wires the
  /// layers. Shared by Open and FromBuffer.
  Status Init(const uint8_t* data, size_t size,
              const MappedOpenOptions& options);
  Status VerifyChecksumOver(const uint8_t* data, size_t size) const;

  MappedImageHeader header_{};
  NameTable names_;
  LabelMaps maps_;
  std::vector<int64_t> label_totals_;
  Layer layers_[2];

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* mmap_base_ = nullptr;  ///< non-null when `data_` is a mapping
  size_t mmap_bytes_ = 0;
  std::vector<uint8_t> owned_;  ///< read/FromBuffer fallback storage
};

/// FNV-1a 64-bit over a byte range (the image checksum).
uint64_t Fnv1a64(const uint8_t* data, size_t size);

}  // namespace xmlsel

#endif  // XMLSEL_STORAGE_MAPPED_H_
