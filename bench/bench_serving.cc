// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Saturation bench for the multi-tenant serving catalog: reader QPS
// against shard count, with and without a concurrent writer republishing
// snapshots under the readers. Emits JSON so the serving perf trajectory
// is tracked across PRs:
//
//   ./bench_serving [--smoke] [output.json]   (default BENCH_serving.json)
//
// --smoke is the CI gate mode: a fast fixture, and a nonzero exit unless
//   (1) every reader fast path took zero lock acquisitions,
//   (2) reader QPS is nonzero with tenants spread across multiple shards,
//   (3) every batch completed OK while a writer swapped snapshots
//       underneath (swap-under-load),
//   (4) an N-mapped-image catalog served under a fixed decode budget
//       stays within the budget (exact resident_bytes accounting) with
//       real evictions and every batch still OK.
//
// Shard scaling and writer-induced p99 are parallel measurements; on a
// single-effective-core host they collapse to time-slicing, so the JSON
// records scaling_valid (bench_env.h) and the p99 ratio is only a claim
// when it is true.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "data/generator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "verify/verify.h"

namespace xmlsel {
namespace {

constexpr int32_t kTenants = 8;

/// Everything one Run shares across catalogs: two provably different
/// synopsis versions of the same corpus (common label ids — NameTable
/// copies preserve them) and the reader workload parsed once.
struct Fixture {
  std::shared_ptr<const Synopsis> version_a;  // kappa = 0 (exact)
  std::shared_ptr<const Synopsis> version_b;  // kappa = 1 << 20 (lossy)
  std::vector<Query> queries;

  static Fixture Make(int64_t elements) {
    Document doc = GenerateDataset(DatasetId::kDblp, elements, 3);
    SynopsisOptions options;
    options.kappa = 0;
    auto a = std::make_shared<Synopsis>(Synopsis::Build(doc, options));
    auto b = std::make_shared<Synopsis>(*a);
    b->RecomputeLossy(1 << 20);

    Fixture f;
    f.version_a = a;
    f.version_b = b;
    NameTable names = a->names();
    for (std::string_view text :
         {"//article", "//article/author", "//inproceedings[./title]",
          "/dblp/article/title"}) {
      Result<Query> q = ParseQuery(text, &names);
      XMLSEL_CHECK(q.ok());
      f.queries.push_back(std::move(q).value());
    }
    return f;
  }
};

std::string TenantName(int32_t i) { return "tenant-" + std::to_string(i); }

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double PercentileUs(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0.0;
  std::sort(lat->begin(), lat->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(lat->size() - 1));
  return (*lat)[idx] * 1e6;
}

/// One saturation point: R reader threads round-robin K batches each over
/// the tenants of a fresh catalog with S shards, optionally against one
/// writer republishing alternating versions the whole time.
struct RunResult {
  int32_t shards = 0;
  bool writer = false;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  int64_t batches = 0;
  int64_t publishes = 0;       ///< writer swaps landed during the run
  int64_t reader_locks = 0;    ///< must be 0
  int32_t shards_with_hits = 0;
  bool all_ok = false;
};

RunResult RunSaturation(const Fixture& f, int32_t shards, int32_t readers,
                        int32_t batches_per_reader, bool with_writer) {
  ServingCatalog catalog(shards);
  for (int32_t t = 0; t < kTenants; ++t) {
    catalog.PublishSynopsis(TenantName(t), f.version_a);
  }
  std::span<const Query> span(f.queries);

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::vector<double>> lat(static_cast<size_t>(readers));

  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& version = (i % 2 == 0) ? f.version_b : f.version_a;
        catalog.PublishSynopsis(TenantName(static_cast<int32_t>(i % kTenants)),
                                version);
        ++i;
        std::this_thread::yield();
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      std::vector<double>& mine = lat[static_cast<size_t>(r)];
      mine.reserve(static_cast<size_t>(batches_per_reader));
      for (int32_t i = 0; i < batches_per_reader; ++i) {
        std::string tenant = TenantName((r * 31 + i) % kTenants);
        auto b0 = std::chrono::steady_clock::now();
        Result<BatchOutcome> out = catalog.EstimateBatch(tenant, span);
        mine.push_back(SecondsSince(b0));
        if (!out.ok()) {
          ok.store(false, std::memory_order_relaxed);
          continue;
        }
        for (const auto& res : out.value().results) {
          if (!res.ok()) ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  double seconds = SecondsSince(t0);
  stop.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  CatalogStats stats = catalog.Stats();
  RunResult out;
  out.shards = shards;
  out.writer = with_writer;
  out.seconds = seconds;
  out.batches = static_cast<int64_t>(readers) * batches_per_reader;
  out.qps = static_cast<double>(out.batches) *
            static_cast<double>(f.queries.size()) / seconds;
  std::vector<double> merged;
  for (auto& v : lat) merged.insert(merged.end(), v.begin(), v.end());
  out.p50_us = PercentileUs(&merged, 0.50);
  out.p99_us = PercentileUs(&merged, 0.99);
  // publishes counts the initial per-tenant publish too; swaps are the rest.
  out.publishes = stats.publishes - kTenants;
  out.reader_locks = stats.reader_fast_path_locks;
  for (const ShardStats& s : stats.shards) {
    if (s.hits > 0) ++out.shards_with_hits;
  }
  out.all_ok = ok.load();
  // The populated catalog must still pass the cross-layer audit.
  Status audit = VerifyServingCatalog(catalog);
  if (!audit.ok()) {
    std::fprintf(stderr, "catalog audit failed: %s\n",
                 audit.ToString().c_str());
    out.all_ok = false;
  }
  return out;
}

/// One budget point: every tenant serves its own mapped image (N
/// independent decode caches), readers hammer batches while — when a
/// budget is set — an enforcer thread keeps the catalog-wide decode
/// residency bounded and reclaims grace-expired rules. budget == 0 runs
/// the same workload unbounded, as the throughput baseline.
struct BudgetResult {
  int64_t budget = 0;
  double seconds = 0.0;
  double qps = 0.0;
  int64_t batches = 0;
  int64_t evictions = 0;
  int64_t resident_bytes = 0;  ///< after the final quiesced enforcement
  int64_t peak_resident_bytes = 0;  ///< max seen by the enforcer
  bool all_ok = false;
  bool within_budget = false;
};

BudgetResult RunBudget(const Fixture& f, int64_t budget, int32_t readers,
                       int32_t batches_per_reader) {
  ServingCatalog catalog(4);
  for (int32_t t = 0; t < kTenants; ++t) {
    Result<std::unique_ptr<MappedSynopsis>> image =
        MappedSynopsis::FromBuffer(BuildMappedImage(*f.version_a));
    XMLSEL_CHECK(image.ok());
    catalog.PublishMapped(
        TenantName(t),
        std::shared_ptr<const MappedSynopsis>(std::move(image).value()));
  }
  if (budget > 0) catalog.SetDecodeBudget(budget);
  std::span<const Query> span(f.queries);

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::atomic<int64_t> peak{0};
  std::thread enforcer;
  if (budget > 0) {
    enforcer = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        catalog.EnforceDecodeBudget();
        catalog.ReclaimEvictedRules();
        int64_t now = catalog.Stats().decode_resident_bytes;
        int64_t prev = peak.load(std::memory_order_relaxed);
        while (now > prev &&
               !peak.compare_exchange_weak(prev, now,
                                           std::memory_order_relaxed)) {
        }
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      for (int32_t i = 0; i < batches_per_reader; ++i) {
        std::string tenant = TenantName((r * 31 + i) % kTenants);
        Result<BatchOutcome> out = catalog.EstimateBatch(tenant, span);
        if (!out.ok()) {
          ok.store(false, std::memory_order_relaxed);
          continue;
        }
        for (const auto& res : out.value().results) {
          if (!res.ok()) ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  double seconds = SecondsSince(t0);
  stop.store(true, std::memory_order_relaxed);
  if (enforcer.joinable()) enforcer.join();

  BudgetResult out;
  out.budget = budget;
  out.seconds = seconds;
  out.batches = static_cast<int64_t>(readers) * batches_per_reader;
  out.qps = static_cast<double>(out.batches) *
            static_cast<double>(f.queries.size()) / seconds;
  // Quiesce: one final enforcement brings any post-enforcer decodes back
  // under the budget; unbounded runs just report what accumulated.
  if (budget > 0) {
    catalog.EnforceDecodeBudget();
    catalog.ReclaimEvictedRules();
  }
  CatalogStats stats = catalog.Stats();
  out.evictions = stats.decode_evictions;
  out.resident_bytes = stats.decode_resident_bytes;
  out.peak_resident_bytes =
      std::max(peak.load(std::memory_order_relaxed), out.resident_bytes);
  out.all_ok = ok.load();
  out.within_budget = budget <= 0 || out.resident_bytes <= budget;
  return out;
}

int Run(bool smoke, const char* out_path) {
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  const int64_t elements = smoke ? 2000 : 12000;
  const int32_t readers = smoke ? 2 : 4;
  const int32_t batches_per_reader = smoke ? 30 : 200;
  const std::vector<int32_t> shard_sweep =
      smoke ? std::vector<int32_t>{1, 4} : std::vector<int32_t>{1, 2, 4, 8};

  std::printf("building dblp fixture: %lld elements, %d tenants...\n",
              static_cast<long long>(elements), kTenants);
  Fixture fixture = Fixture::Make(elements);
  const bool scaling_valid = bench::WarnIfScalingInvalid("shard/writer");

  std::vector<RunResult> runs;
  for (int32_t shards : shard_sweep) {
    for (bool with_writer : {false, true}) {
      RunResult r = RunSaturation(fixture, shards, readers,
                                  batches_per_reader, with_writer);
      std::printf(
          "shards=%d writer=%s  %.3fs  %.0f q/s  p50=%.0fus p99=%.0fus  "
          "swaps=%lld locks=%lld%s\n",
          r.shards, r.writer ? "on " : "off", r.seconds, r.qps, r.p50_us,
          r.p99_us, static_cast<long long>(r.publishes),
          static_cast<long long>(r.reader_locks), r.all_ok ? "" : "  FAILED");
      runs.push_back(r);
    }
  }

  // Byte-budget case: the same workload over N independent mapped images,
  // first unbounded (baseline residency + qps), then with a catalog-wide
  // decode budget at half the unbounded residency and a live enforcer.
  BudgetResult unbounded = RunBudget(fixture, 0, readers, batches_per_reader);
  int64_t budget_bytes = std::max<int64_t>(unbounded.resident_bytes / 2, 1);
  BudgetResult bounded =
      RunBudget(fixture, budget_bytes, readers, batches_per_reader);
  double qps_factor = unbounded.qps > 0.0 ? bounded.qps / unbounded.qps : 0.0;
  std::printf(
      "budget: %d mapped images, unbounded %lld B resident @ %.0f q/s; "
      "budget %lld B -> %lld B resident (peak %lld B), %lld evictions "
      "@ %.0f q/s (%.2fx)%s\n",
      kTenants, static_cast<long long>(unbounded.resident_bytes),
      unbounded.qps, static_cast<long long>(budget_bytes),
      static_cast<long long>(bounded.resident_bytes),
      static_cast<long long>(bounded.peak_resident_bytes),
      static_cast<long long>(bounded.evictions), bounded.qps, qps_factor,
      bounded.within_budget ? "" : "  OVER BUDGET");

  // Writer impact at the widest catalog: p99 with a concurrent writer vs
  // the no-writer p99 of the same shard count.
  const RunResult& quiet = runs[runs.size() - 2];
  const RunResult& stormy = runs[runs.size() - 1];
  double p99_ratio =
      quiet.p99_us > 0.0 ? stormy.p99_us / quiet.p99_us : 0.0;
  std::printf("writer-induced p99: %.0fus vs %.0fus quiet (%.2fx)%s\n",
              stormy.p99_us, quiet.p99_us, p99_ratio,
              scaling_valid ? "" : "  [single core: not a parallel claim]");

  // --- CI gates (checked in every mode; --smoke makes them the exit code).
  bool gate_locks = true;
  bool gate_qps = true;
  bool gate_swap = true;
  for (const RunResult& r : runs) {
    if (r.reader_locks != 0) gate_locks = false;
    if (!(r.qps > 0.0) || !r.all_ok) gate_qps = false;
    if (r.shards > 1 && r.shards_with_hits < 2) gate_qps = false;
    if (r.writer && r.publishes <= 0) gate_swap = false;
    if (r.writer && !r.all_ok) gate_swap = false;
  }
  bool gate_budget = bounded.within_budget && bounded.all_ok &&
                     unbounded.all_ok && bounded.evictions > 0;
  bool gates_ok = gate_locks && gate_qps && gate_swap && gate_budget;
  std::printf(
      "gates: reader_locks_zero=%s cross_shard_qps=%s swap_under_load=%s "
      "resident_within_budget=%s\n",
      gate_locks ? "ok" : "FAIL", gate_qps ? "ok" : "FAIL",
      gate_swap ? "ok" : "FAIL", gate_budget ? "ok" : "FAIL");

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serving\",\n");
  bench::WriteHostFingerprintJson(f, "  ", bench::CurrentHostFingerprint());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"dataset\": \"dblp\",\n");
  std::fprintf(f, "  \"elements\": %lld,\n", static_cast<long long>(elements));
  std::fprintf(f, "  \"tenants\": %d,\n", kTenants);
  std::fprintf(f, "  \"readers\": %d,\n", readers);
  std::fprintf(f, "  \"batches_per_reader\": %d,\n", batches_per_reader);
  std::fprintf(f, "  \"batch_queries\": %zu,\n", fixture.queries.size());
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"scaling_valid\": %s,\n",
               scaling_valid ? "true" : "false");
  std::fprintf(f, "  \"saturation\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"writer\": %s, \"seconds\": %.4f, "
                 "\"qps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"batches\": %lld, \"writer_swaps\": %lld, "
                 "\"shards_with_hits\": %d, "
                 "\"reader_fast_path_locks\": %lld}%s\n",
                 r.shards, r.writer ? "true" : "false", r.seconds, r.qps,
                 r.p50_us, r.p99_us, static_cast<long long>(r.batches),
                 static_cast<long long>(r.publishes), r.shards_with_hits,
                 static_cast<long long>(r.reader_locks),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"writer_impact\": {\n");
  std::fprintf(f, "    \"shards\": %d,\n", stormy.shards);
  std::fprintf(f, "    \"no_writer_p99_us\": %.1f,\n", quiet.p99_us);
  std::fprintf(f, "    \"with_writer_p99_us\": %.1f,\n", stormy.p99_us);
  std::fprintf(f, "    \"ratio\": %.3f,\n", p99_ratio);
  std::fprintf(f, "    \"within_2x\": %s\n",
               p99_ratio <= 2.0 ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"budget\": {\n");
  std::fprintf(f, "    \"mapped_images\": %d,\n", kTenants);
  std::fprintf(f, "    \"budget_bytes\": %lld,\n",
               static_cast<long long>(budget_bytes));
  std::fprintf(f, "    \"unbounded_resident_bytes\": %lld,\n",
               static_cast<long long>(unbounded.resident_bytes));
  std::fprintf(f, "    \"resident_bytes\": %lld,\n",
               static_cast<long long>(bounded.resident_bytes));
  std::fprintf(f, "    \"peak_resident_bytes\": %lld,\n",
               static_cast<long long>(bounded.peak_resident_bytes));
  std::fprintf(f, "    \"evictions\": %lld,\n",
               static_cast<long long>(bounded.evictions));
  std::fprintf(f, "    \"unbounded_qps\": %.1f,\n", unbounded.qps);
  std::fprintf(f, "    \"qps\": %.1f,\n", bounded.qps);
  std::fprintf(f, "    \"qps_factor\": %.3f,\n", qps_factor);
  std::fprintf(f, "    \"within_budget\": %s\n",
               bounded.within_budget ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gates\": {\n");
  std::fprintf(f, "    \"reader_locks_zero\": %s,\n",
               gate_locks ? "true" : "false");
  std::fprintf(f, "    \"cross_shard_qps_nonzero\": %s,\n",
               gate_qps ? "true" : "false");
  std::fprintf(f, "    \"swap_under_load_ok\": %s,\n",
               gate_swap ? "true" : "false");
  std::fprintf(f, "    \"resident_within_budget\": %s\n",
               gate_budget ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  if (smoke && !gates_ok) {
    std::fprintf(stderr, "smoke gates failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xmlsel

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  return xmlsel::Run(smoke, out_path);
}
