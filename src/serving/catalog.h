// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// The multi-tenant serving catalog: tenant id → versioned snapshot, split
// across shards so unrelated tenants contend on nothing. The structure is
// two RCU levels deep —
//
//   shard → RcuCell<directory>          copy-on-write map of tenants
//           tenant → RcuCell<snapshot>  the currently served version
//
// — so the reader path (Acquire) is directory load + map lookup + snapshot
// load + pin, with **zero lock acquisitions**: both levels go through
// RcuCell::Read (an epoch announcement and a seq_cst pointer load each)
// and Pin copies a shared_ptr whose control block is guaranteed alive
// inside the guard. That claim is not a comment but a counter: every
// serving-layer mutex is taken through CountedMutexLock, and Acquire
// measures the thread-local acquisition delta across its fast path;
// reader_fast_path_locks() must stay 0 (the serving bench smoke gate).
//
// Writers (Publish*/Remove) serialize per shard on a counted mutex, build
// the replacement fully off the read path (snapshot construction decodes
// the eval cache eagerly), publish with one atomic exchange, and let the
// RCU grace period retire the superseded version. A reader mid-batch when
// a writer publishes keeps its pinned snapshot — with its eval cache,
// decode slots, and compiled-query handles — until the batch drops the
// shared_ptr; the batch's results are bit-identical to the version it
// pinned, never a mix.

#ifndef XMLSEL_SERVING_CATALOG_H_
#define XMLSEL_SERVING_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serving/snapshot.h"
#include "xmlsel/mutex.h"
#include "xmlsel/rcu.h"
#include "xmlsel/status.h"
#include "xmlsel/thread_annotations.h"

namespace xmlsel {

/// Counters of one shard.
struct ShardStats {
  int32_t shard = 0;
  int64_t tenants = 0;
  int64_t hits = 0;    ///< Acquire calls that found the tenant
  int64_t misses = 0;  ///< Acquire calls for unknown tenants
  int64_t publishes = 0;
  /// Mutex acquisitions observed on reader fast paths — must stay 0.
  int64_t reader_fast_path_locks = 0;
  /// Superseded versions still awaiting their RCU grace period.
  int64_t retired_pending = 0;
};

struct CatalogStats {
  std::vector<ShardStats> shards;
  int64_t tenants = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t publishes = 0;
  int64_t reader_fast_path_locks = 0;
  /// Decode-cache aggregates over the distinct mapped images currently
  /// served (deduplicated — several tenants may share one image).
  int64_t decoded_rules = 0;
  int64_t decode_resident_bytes = 0;
  int64_t decode_evictions = 0;
  int64_t decode_budget_bytes = 0;  ///< 0 = unbounded
};

/// One batch's results plus the version that produced them. Every result
/// in the batch came from the same pinned snapshot — the attribution the
/// hammer tests check bit-for-bit.
struct BatchOutcome {
  uint64_t snapshot_version = 0;
  std::vector<Result<SelectivityEstimate>> results;
};

/// Sharded tenant → snapshot directory. Thread-safe: any number of
/// concurrent readers (Acquire/Estimate*/Stats) against any number of
/// concurrent writers (Publish*/Remove). Destruction requires external
/// quiescence (no concurrent calls), like any container.
class ServingCatalog {
 public:
  /// `shard_count` ≤ 0 picks a default (2× hardware concurrency, floored
  /// at 4) — enough that tenant hashing spreads load without a resize
  /// surface.
  explicit ServingCatalog(int32_t shard_count = 0);
  ~ServingCatalog();

  ServingCatalog(const ServingCatalog&) = delete;
  ServingCatalog& operator=(const ServingCatalog&) = delete;

  int32_t shard_count() const { return static_cast<int32_t>(shards_.size()); }
  /// Which shard serves `tenant` (stable hash).
  int32_t ShardIndex(std::string_view tenant) const;

  /// Publishes a new version of `tenant` wrapping an eager synopsis;
  /// creates the tenant on first publish. Returns the assigned version
  /// (monotonic per tenant, starting at 1). The synopsis must stay
  /// immutable while served.
  uint64_t PublishSynopsis(std::string_view tenant,
                           std::shared_ptr<const Synopsis> synopsis);

  /// Same over an opened mapped image.
  uint64_t PublishMapped(std::string_view tenant,
                         std::shared_ptr<const MappedSynopsis> image);

  /// Opens `path` as a mapped image and publishes it.
  Result<uint64_t> PublishFile(std::string_view tenant,
                               const std::string& path);

  /// Removes `tenant` from the directory. In-flight batches that pinned a
  /// snapshot finish unharmed. Returns false if the tenant was unknown.
  bool Remove(std::string_view tenant);

  /// Reader fast path: the currently served snapshot of `tenant`, pinned
  /// (null when unknown). Zero lock acquisitions — probed at runtime
  /// (CountedMutexLock delta), banned lexically (XMLSEL_LOCK_FREE_READ on
  /// the definition), and excluded statically (RcuCell::Read carries
  /// EXCLUDES on its writer mutex).
  std::shared_ptr<const ServingSnapshot> Acquire(std::string_view tenant) const;

  /// Acquire + batch estimation on the pinned snapshot. kNotFound when
  /// the tenant is unknown.
  Result<BatchOutcome> EstimateBatch(std::string_view tenant,
                                     std::span<const Query> queries,
                                     int32_t threads = 1,
                                     ThreadPool* pool = nullptr) const;

  /// String-front convenience: parses against a private copy of the
  /// snapshot's base names (per call).
  Result<BatchOutcome> EstimateStrings(std::string_view tenant,
                                       std::span<const std::string_view> xpaths,
                                       int32_t threads = 1,
                                       ThreadPool* pool = nullptr) const;

  /// All tenant ids, across shards (directory snapshot; no locks).
  std::vector<std::string> Tenants() const;

  /// Per-tenant serving stats (version, caches, residency).
  Result<SnapshotStats> TenantStats(std::string_view tenant) const;

  CatalogStats Stats() const;

  /// Sets the catalog-wide decode-cache budget in bytes (≤ 0 = unbounded).
  /// The budget covers the summed decode-cache residency of every distinct
  /// mapped image currently served. Takes effect on the next publish or
  /// explicit EnforceDecodeBudget call.
  void SetDecodeBudget(int64_t budget_bytes) {
    decode_budget_.store(budget_bytes < 0 ? 0 : budget_bytes,
                         std::memory_order_relaxed);
  }
  int64_t decode_budget() const {
    return decode_budget_.load(std::memory_order_relaxed);
  }

  /// Walks every served mapped image (deduplicated) and evicts decoded
  /// rules — largest-resident images first — until the summed residency
  /// fits the budget. No-op when unbounded. Readers mid-batch keep any
  /// rule they borrowed until the RCU grace period expires; re-decodes
  /// repopulate evicted slots on demand with bit-identical contents.
  /// Returns the number of rules evicted.
  int64_t EnforceDecodeBudget() const;

  /// Frees evicted rules whose RCU grace period has expired, across all
  /// served images. Returns the number of rules freed.
  int64_t ReclaimEvictedRules() const;

 private:
  struct TenantState {
    explicit TenantState(std::string id) : id(std::move(id)) {}
    const std::string id;
    std::atomic<uint64_t> next_version{1};
    RcuCell<ServingSnapshot> cell;
  };
  /// Copy-on-write directory; transparent comparator so Acquire looks up
  /// by string_view without materializing a key.
  using TenantMap =
      std::map<std::string, std::shared_ptr<TenantState>, std::less<>>;

  struct Shard {
    RcuCell<TenantMap> directory;
    Mutex writer_mu;  ///< serializes Publish*/Remove; counted
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> publishes{0};
    std::atomic<int64_t> reader_locks{0};
  };

  Shard& ShardFor(std::string_view tenant) const {
    return *shards_[static_cast<size_t>(ShardIndex(tenant))];
  }

  /// Finds-or-creates the tenant state under the shard writer lock and
  /// publishes `snapshot_factory(version)` into its cell. Enforces the
  /// decode budget (if bounded) after the lock is released.
  template <typename Factory>
  uint64_t PublishWith(std::string_view tenant, Factory&& snapshot_factory);

  /// Distinct mapped images currently served, pinned (directory walk, no
  /// Acquire — hit/miss counters stay untouched).
  std::vector<std::shared_ptr<const MappedSynopsis>> ServedImages() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> decode_budget_{0};  ///< 0 = unbounded
};

}  // namespace xmlsel

#endif  // XMLSEL_SERVING_CATALOG_H_
