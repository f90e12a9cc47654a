// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "serving/snapshot.h"

#include <utility>

#include "xmlsel/common.h"

namespace xmlsel {

std::shared_ptr<const ServingSnapshot> ServingSnapshot::FromSynopsis(
    std::shared_ptr<const Synopsis> synopsis, uint64_t version) {
  XMLSEL_CHECK(synopsis != nullptr);
  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->version_ = version;
  snap->eager_ = std::move(synopsis);
  // Force the lazy eval cache now, on the publishing thread: eval_cache()
  // takes the synopsis's internal mutex, and the reader fast path must
  // not. After this call the provider pointer is stable for the
  // synopsis's lifetime (snapshots wrap immutable synopses).
  snap->provider_ = &snap->eager_->eval_cache();
  snap->maps_ = &snap->eager_->label_maps();
  snap->base_names_ = &snap->eager_->names();
  snap->label_totals_ = snap->eager_->label_totals();
  snap->element_total_ = snap->eager_->ElementTotal();
  snap->base_label_count_ = snap->base_names_->size();
  return snap;
}

std::shared_ptr<const ServingSnapshot> ServingSnapshot::FromMapped(
    std::shared_ptr<const MappedSynopsis> image, uint64_t version) {
  XMLSEL_CHECK(image != nullptr);
  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->version_ = version;
  snap->mapped_ = std::move(image);
  snap->provider_ = &snap->mapped_->serving_provider();
  snap->maps_ = &snap->mapped_->label_maps();
  snap->base_names_ = &snap->mapped_->names();
  snap->label_totals_ = snap->mapped_->label_totals();
  snap->element_total_ = snap->mapped_->element_total();
  snap->base_label_count_ = snap->base_names_->size();
  return snap;
}

ServingView ServingSnapshot::View() const {
  ServingView view;
  view.provider = provider_;
  view.maps = maps_;
  view.query_cache = &query_cache_;
  view.label_totals = label_totals_;
  view.element_total = element_total_;
  return view;
}

SnapshotStats ServingSnapshot::Stats() const {
  SnapshotStats stats;
  stats.version = version_;
  stats.mapped = is_mapped();
  stats.element_total = element_total_;
  stats.compile_cache_size = query_cache_.size();
  stats.compile_cache_hits = query_cache_.hits();
  stats.compile_cache_misses = query_cache_.misses();
  if (mapped_ != nullptr) stats.residency = mapped_->Stats();
  return stats;
}

bool QueryWithinBaseLabels(const ServingSnapshot& snapshot,
                           const Query& query) {
  for (int32_t i = 0; i < query.size(); ++i) {
    if (query.node(i).test >= snapshot.base_label_count()) return false;
  }
  return true;
}

namespace {

// Runs a batch through the snapshot's shared compiled-query cache when
// every query keys consistently into it, and through a call-local cache
// otherwise. Fresh labels (interned by this caller after the snapshot was
// built) have caller-local ids: two callers' canonical keys would collide
// on unrelated shapes, so such batches must not touch the shared table.
// The local table is keyed by this caller's ids only — consistent — and
// still interns duplicates within the batch. Results are bit-identical
// either way; only hit counters differ.
std::vector<Result<SelectivityEstimate>> BatchWithCachePolicy(
    const ServingSnapshot& snapshot, std::span<const Query> queries,
    int32_t threads, ThreadPool* pool) {
  bool shared_ok = true;
  for (const Query& q : queries) {
    if (!QueryWithinBaseLabels(snapshot, q)) {
      shared_ok = false;
      break;
    }
  }
  if (shared_ok) {
    return EstimateBatchOnView(snapshot.View(), queries, threads, pool);
  }
  CompiledQueryCache local_cache;
  ServingView view = snapshot.View();
  view.query_cache = &local_cache;
  return EstimateBatchOnView(view, queries, threads, pool);
}

}  // namespace

Result<SelectivityEstimate> EstimateOnSnapshot(const ServingSnapshot& snapshot,
                                               const Query& query) {
  if (QueryWithinBaseLabels(snapshot, query)) {
    return EstimateQueryOnView(snapshot.View(), query);
  }
  CompiledQueryCache local_cache;
  ServingView view = snapshot.View();
  view.query_cache = &local_cache;
  return EstimateQueryOnView(view, query);
}

std::vector<Result<SelectivityEstimate>> EstimateBatchOnSnapshot(
    const ServingSnapshot& snapshot, std::span<const Query> queries,
    int32_t threads, ThreadPool* pool) {
  if (threads <= 0) threads = 1;
  return BatchWithCachePolicy(snapshot, queries, threads,
                              threads == 1 ? nullptr : pool);
}

std::vector<Result<SelectivityEstimate>> EstimateStringsOnSnapshot(
    const ServingSnapshot& snapshot,
    std::span<const std::string_view> xpaths, NameTable* scratch,
    int32_t threads, ThreadPool* pool) {
  XMLSEL_CHECK(scratch != nullptr);
  // The scratch table must be (at least) a copy of the snapshot's base
  // names — ids below base_label_count must agree, which holds for any
  // copy of the base table possibly extended by earlier parses.
  XMLSEL_CHECK(scratch->size() >= snapshot.base_label_count());
  return EstimateStringBatch(
      xpaths, scratch, [&](std::span<const Query> queries) {
        return EstimateBatchOnSnapshot(snapshot, queries, threads, pool);
      });
}

}  // namespace xmlsel
