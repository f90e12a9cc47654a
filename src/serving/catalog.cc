// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "serving/catalog.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "xmlsel/common.h"

namespace xmlsel {

ServingCatalog::ServingCatalog(int32_t shard_count) {
  if (shard_count <= 0) {
    shard_count = std::max(
        4, 2 * static_cast<int32_t>(std::thread::hardware_concurrency()));
  }
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int32_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ServingCatalog::~ServingCatalog() = default;

int32_t ServingCatalog::ShardIndex(std::string_view tenant) const {
  return static_cast<int32_t>(std::hash<std::string_view>{}(tenant) %
                              shards_.size());
}

template <typename Factory>
uint64_t ServingCatalog::PublishWith(std::string_view tenant,
                                     Factory&& snapshot_factory) {
  uint64_t version;
  {
    Shard& shard = ShardFor(tenant);
    CountedMutexLock lock(shard.writer_mu);
    std::shared_ptr<const TenantMap> current = shard.directory.Read().Pin();
    std::shared_ptr<TenantState> state;
    if (current != nullptr) {
      auto it = current->find(tenant);
      if (it != current->end()) state = it->second;
    }
    const bool fresh = state == nullptr;
    if (fresh) state = std::make_shared<TenantState>(std::string(tenant));
    version = state->next_version.fetch_add(1, std::memory_order_relaxed);
    // Snapshot construction (eval-cache build for the eager form) happens
    // here, on the writer — the published pointer is fully built before
    // any reader can load it.
    state->cell.Publish(snapshot_factory(version));
    if (fresh) {
      // Copy-on-write directory update, *after* the snapshot is in place:
      // a reader that finds the tenant always finds a served version.
      auto next = current == nullptr ? std::make_shared<TenantMap>()
                                     : std::make_shared<TenantMap>(*current);
      (*next)[state->id] = state;
      shard.directory.Publish(std::move(next));
    }
    shard.publishes.fetch_add(1, std::memory_order_relaxed);
  }
  // Budget enforcement walks every shard's directory and takes each
  // image's evict mutex — strictly after the shard writer lock is
  // released, so publish and enforcement never nest locks.
  if (decode_budget_.load(std::memory_order_relaxed) > 0) {
    EnforceDecodeBudget();
  }
  return version;
}

uint64_t ServingCatalog::PublishSynopsis(
    std::string_view tenant, std::shared_ptr<const Synopsis> synopsis) {
  XMLSEL_CHECK(synopsis != nullptr);
  return PublishWith(tenant, [&synopsis](uint64_t version) {
    return ServingSnapshot::FromSynopsis(std::move(synopsis), version);
  });
}

uint64_t ServingCatalog::PublishMapped(
    std::string_view tenant, std::shared_ptr<const MappedSynopsis> image) {
  XMLSEL_CHECK(image != nullptr);
  return PublishWith(tenant, [&image](uint64_t version) {
    return ServingSnapshot::FromMapped(std::move(image), version);
  });
}

Result<uint64_t> ServingCatalog::PublishFile(std::string_view tenant,
                                             const std::string& path) {
  Result<std::unique_ptr<MappedSynopsis>> image = MappedSynopsis::Open(path);
  if (!image.ok()) return image.status();
  return PublishMapped(
      tenant, std::shared_ptr<const MappedSynopsis>(std::move(image).value()));
}

bool ServingCatalog::Remove(std::string_view tenant) {
  Shard& shard = ShardFor(tenant);
  CountedMutexLock lock(shard.writer_mu);
  std::shared_ptr<const TenantMap> current = shard.directory.Read().Pin();
  if (current == nullptr) return false;
  auto it = current->find(tenant);
  if (it == current->end()) return false;
  auto next = std::make_shared<TenantMap>(*current);
  next->erase(next->find(tenant));
  // The removed TenantState stays alive through retired directory
  // versions until the grace period passes; pinned snapshots outlive even
  // that (shared_ptr).
  shard.directory.Publish(std::move(next));
  return true;
}

XMLSEL_LOCK_FREE_READ std::shared_ptr<const ServingSnapshot>
ServingCatalog::Acquire(std::string_view tenant) const {
  Shard& shard = ShardFor(tenant);
  const int64_t locks_before = internal::ThreadMutexAcquisitions();
  std::shared_ptr<const ServingSnapshot> pinned;
  {
    // Two nested read-side critical sections (directory, then the
    // tenant's snapshot cell — ReadGuard is re-entrant). The TenantState
    // is kept alive by the directory version the guard protects; the
    // snapshot pin taken inside the guard outlives both.
    RcuCell<TenantMap>::Ref dir = shard.directory.Read();
    if (dir) {
      auto it = dir->find(tenant);
      if (it != dir->end()) pinned = it->second->cell.Read().Pin();
    }
  }
  // Lock-freedom is probed, not assumed: any serving-layer mutex taken
  // between the probes shows up here and fails the smoke gate.
  const int64_t delta = internal::ThreadMutexAcquisitions() - locks_before;
  if (delta != 0) {
    shard.reader_locks.fetch_add(delta, std::memory_order_relaxed);
  }
  if (pinned != nullptr) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }
  return pinned;
}

Result<BatchOutcome> ServingCatalog::EstimateBatch(std::string_view tenant,
                                                   std::span<const Query> queries,
                                                   int32_t threads,
                                                   ThreadPool* pool) const {
  std::shared_ptr<const ServingSnapshot> snap = Acquire(tenant);
  if (snap == nullptr) {
    return Status::NotFound("unknown tenant: " + std::string(tenant));
  }
  BatchOutcome out;
  out.snapshot_version = snap->version();
  out.results = EstimateBatchOnSnapshot(*snap, queries, threads, pool);
  return out;
}

Result<BatchOutcome> ServingCatalog::EstimateStrings(
    std::string_view tenant, std::span<const std::string_view> xpaths,
    int32_t threads, ThreadPool* pool) const {
  std::shared_ptr<const ServingSnapshot> snap = Acquire(tenant);
  if (snap == nullptr) {
    return Status::NotFound("unknown tenant: " + std::string(tenant));
  }
  NameTable scratch = snap->base_names();
  BatchOutcome out;
  out.snapshot_version = snap->version();
  out.results =
      EstimateStringsOnSnapshot(*snap, xpaths, &scratch, threads, pool);
  return out;
}

std::vector<std::string> ServingCatalog::Tenants() const {
  std::vector<std::string> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    RcuCell<TenantMap>::Ref dir = shard->directory.Read();
    if (!dir) continue;
    for (const auto& [id, state] : *dir) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<SnapshotStats> ServingCatalog::TenantStats(
    std::string_view tenant) const {
  std::shared_ptr<const ServingSnapshot> snap = Acquire(tenant);
  if (snap == nullptr) {
    return Status::NotFound("unknown tenant: " + std::string(tenant));
  }
  return snap->Stats();
}

std::vector<std::shared_ptr<const MappedSynopsis>>
ServingCatalog::ServedImages() const {
  // Directory walk, not Acquire: budget enforcement and stats must not
  // pollute the hit/miss counters the serving bench gates on. Pinning the
  // snapshot inside the directory read guard keeps its image alive after
  // the guard drops; several tenants may serve the same image, so dedupe
  // by the raw image pointer.
  std::vector<std::shared_ptr<const MappedSynopsis>> images;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    RcuCell<TenantMap>::Ref dir = shard->directory.Read();
    if (!dir) continue;
    for (const auto& [id, state] : *dir) {
      std::shared_ptr<const ServingSnapshot> snap = state->cell.Read().Pin();
      if (snap == nullptr || !snap->is_mapped()) continue;
      const std::shared_ptr<const MappedSynopsis>& image = snap->mapped_image();
      if (image == nullptr) continue;
      bool seen = false;
      for (const auto& have : images) {
        if (have.get() == image.get()) { seen = true; break; }
      }
      if (!seen) images.push_back(image);
    }
  }
  return images;
}

int64_t ServingCatalog::EnforceDecodeBudget() const {
  const int64_t budget = decode_budget_.load(std::memory_order_relaxed);
  if (budget <= 0) return 0;
  // Each image's residency is read once: readers keep decoding while this
  // runs, so re-reading it inside the sort comparator would give an
  // inconsistent ordering (undefined behaviour for std::sort).
  std::vector<std::pair<int64_t, std::shared_ptr<const MappedSynopsis>>>
      images;
  int64_t total = 0;
  for (auto& image : ServedImages()) {
    const int64_t bytes = image->Stats().resident_bytes();
    total += bytes;
    images.emplace_back(bytes, std::move(image));
  }
  if (total <= budget) return 0;
  // Largest-resident images shed first: one pass over the sorted order
  // reaches the budget while touching as few images as possible. Each
  // image's target is its share after the catalog-wide excess is taken
  // out of it; the running total is refreshed from the image's actual
  // post-eviction residency, so concurrent decodes are accounted for.
  std::sort(images.begin(), images.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  int64_t evicted = 0;
  for (const auto& entry : images) {
    if (total <= budget) break;
    const std::shared_ptr<const MappedSynopsis>& image = entry.second;
    const int64_t before = image->Stats().resident_bytes();
    const int64_t excess = total - budget;
    const int64_t target = before > excess ? before - excess : 0;
    evicted += image->EnforceDecodeBudget(target);
    total += image->Stats().resident_bytes() - before;
  }
  return evicted;
}

int64_t ServingCatalog::ReclaimEvictedRules() const {
  int64_t freed = 0;
  for (const auto& image : ServedImages()) {
    freed += image->ReclaimEvictedRules();
  }
  return freed;
}

CatalogStats ServingCatalog::Stats() const {
  CatalogStats out;
  out.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats s;
    s.shard = static_cast<int32_t>(i);
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.publishes = shard.publishes.load(std::memory_order_relaxed);
    s.reader_fast_path_locks =
        shard.reader_locks.load(std::memory_order_relaxed);
    s.retired_pending = shard.directory.retired_pending();
    {
      RcuCell<TenantMap>::Ref dir = shard.directory.Read();
      if (dir) {
        s.tenants = static_cast<int64_t>(dir->size());
        for (const auto& [id, state] : *dir) {
          s.retired_pending += state->cell.retired_pending();
        }
      }
    }
    out.tenants += s.tenants;
    out.hits += s.hits;
    out.misses += s.misses;
    out.publishes += s.publishes;
    out.reader_fast_path_locks += s.reader_fast_path_locks;
    out.shards.push_back(s);
  }
  out.decode_budget_bytes = decode_budget_.load(std::memory_order_relaxed);
  for (const auto& image : ServedImages()) {
    MappedSynopsisStats residency = image->Stats();
    out.decoded_rules += residency.decoded_rules();
    out.decode_resident_bytes += residency.resident_bytes();
    out.decode_evictions += residency.lossless.evictions +
                            residency.lossy.evictions;
  }
  return out;
}

}  // namespace xmlsel
