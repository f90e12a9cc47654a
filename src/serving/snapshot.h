// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// One published, immutable version of one tenant's synopsis — the unit
// the catalog swaps. A snapshot unifies the two serving forms (eager
// Synopsis, mmap-backed MappedSynopsis) behind the ServingView core and
// *owns* the per-version mutable-but-internally-synchronized resources:
// the compiled-query intern table and (for the mapped form) the lazy
// decode cache live exactly as long as the snapshot, so a reader that
// pinned a snapshot keeps every cache its in-flight batch touches alive
// across any number of subsequent swaps.
//
// Cache-ownership rules (see DESIGN.md "Serving catalog & snapshot
// lifecycle"):
//   - SynopsisEvalCache / decode slots: owned by the backing synopsis or
//     image; captured as a raw provider pointer at publish time so the
//     read path never touches the backing object's lazy-build mutex.
//   - CompiledQueryCache: owned by the snapshot (per version). Entries
//     are handed out as shared_ptr, so a handle obtained before a swap
//     stays valid after it — pin the snapshot and the handle outlives
//     retirement.
//   - NameTable: snapshots expose the backing table read-only. Parsing
//     interns, so callers parse against their own scratch copy; labels
//     below base_label_count() have identical ids in every copy, labels
//     at or above it are caller-local — queries containing any such
//     fresh label bypass the shared compiled-query cache (their canonical
//     keys would alias across callers).

#ifndef XMLSEL_SERVING_SNAPSHOT_H_
#define XMLSEL_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "automaton/compiled_cache.h"
#include "estimator/serving.h"
#include "estimator/synopsis.h"
#include "storage/mapped.h"
#include "xml/name_table.h"
#include "xmlsel/status.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {

/// Counters of one snapshot, for per-tenant reporting.
struct SnapshotStats {
  uint64_t version = 0;
  bool mapped = false;
  int64_t element_total = 0;
  int64_t compile_cache_size = 0;
  int64_t compile_cache_hits = 0;
  int64_t compile_cache_misses = 0;
  /// Decode-cache residency (zeros for the eager form).
  MappedSynopsisStats residency;
};

/// Immutable after construction; internally synchronized caches only.
/// Always lives behind shared_ptr — readers pin it, the catalog's RCU
/// cell retires it.
class ServingSnapshot {
 public:
  /// Wraps an eager synopsis. Builds the eval cache up front (publish is
  /// the slow path) so the read path never hits the lazy-build mutex.
  /// The synopsis must not be mutated while any snapshot wraps it.
  static std::shared_ptr<const ServingSnapshot> FromSynopsis(
      std::shared_ptr<const Synopsis> synopsis, uint64_t version);

  /// Wraps an opened mapped image.
  static std::shared_ptr<const ServingSnapshot> FromMapped(
      std::shared_ptr<const MappedSynopsis> image, uint64_t version);

  uint64_t version() const { return version_; }
  bool is_mapped() const { return mapped_ != nullptr; }

  /// The backing name table (read-only; copy it to parse).
  const NameTable& base_names() const { return *base_names_; }
  /// Labels below this id mean the same thing to every caller.
  int32_t base_label_count() const { return base_label_count_; }
  int64_t element_total() const { return element_total_; }

  /// The per-version compiled-query intern table.
  CompiledQueryCache& query_cache() const { return query_cache_; }

  /// The serving view over this snapshot (provider captured at publish).
  ServingView View() const;

  SnapshotStats Stats() const;

  const std::shared_ptr<const Synopsis>& eager_synopsis() const {
    return eager_;
  }
  const std::shared_ptr<const MappedSynopsis>& mapped_image() const {
    return mapped_;
  }

 private:
  ServingSnapshot() = default;

  uint64_t version_ = 0;
  std::shared_ptr<const Synopsis> eager_;
  std::shared_ptr<const MappedSynopsis> mapped_;
  const RuleProvider* provider_ = nullptr;
  const LabelMaps* maps_ = nullptr;
  const NameTable* base_names_ = nullptr;
  std::span<const int64_t> label_totals_;
  int64_t element_total_ = 0;
  int32_t base_label_count_ = 0;
  mutable CompiledQueryCache query_cache_;
};

/// True when every node test of `query` resolves below the snapshot's
/// base label count — the precondition for keying into the shared
/// per-version compiled-query cache.
bool QueryWithinBaseLabels(const ServingSnapshot& snapshot,
                           const Query& query);

/// Estimates one already-parsed query against a snapshot. Queries
/// containing caller-local fresh labels are compiled uncached.
Result<SelectivityEstimate> EstimateOnSnapshot(const ServingSnapshot& snapshot,
                                               const Query& query);

/// Batch estimation against a snapshot, positionally aligned and
/// bit-identical to sequential EstimateOnSnapshot calls. `threads` == 1
/// or a null pool runs inline.
std::vector<Result<SelectivityEstimate>> EstimateBatchOnSnapshot(
    const ServingSnapshot& snapshot, std::span<const Query> queries,
    int32_t threads = 1, ThreadPool* pool = nullptr);

/// String front: parses each XPath against `scratch` (a mutable copy of
/// the snapshot's base names owned by the caller), then estimates. Parse
/// failures surface per-slot.
std::vector<Result<SelectivityEstimate>> EstimateStringsOnSnapshot(
    const ServingSnapshot& snapshot,
    std::span<const std::string_view> xpaths, NameTable* scratch,
    int32_t threads = 1, ThreadPool* pool = nullptr);

}  // namespace xmlsel

#endif  // XMLSEL_SERVING_SNAPSHOT_H_
