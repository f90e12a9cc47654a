// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Storage benchmarks, tracked as the `storage` JSON section:
//
//   ./bench_storage [--smoke] [output.json]   (default BENCH_storage.json)
//
// Three claims are measured:
//
//  1. §7 packed encoding: bytes vs the natural pointer representation,
//     per dataset (the paper's "slashes the space requirements").
//  2. Dynamic blocked store: bounded bytes-moved per update (PR 3).
//  3. **Zero-copy serving** (this PR): cold-start-to-first-query of the
//     mmap-able image with per-rule lazy decode versus eagerly thawing
//     the same file into a full in-memory synopsis. Each serving
//     scenario runs in its own child process (re-exec of this binary),
//     so open time, first-query time, and peak RSS (/proc/self/status
//     VmHWM, /proc/self/statm) are measured from a genuinely cold
//     process. The section also reports the queries-until-parity
//     crossover: how many warm queries the eager path would need to
//     amortize its upfront decode (0 = eager is ahead from the first
//     query, -1 = mapped is never overtaken).
//
// --smoke shrinks the fixtures and additionally *gates* the structural
// claims CI relies on: lazily decoded rules stay strictly below the
// image's rule total, and corrupted images are rejected at open
// (truncation, bad magic, payload bit-flips).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_env.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "query/parser.h"
#include "serving/snapshot.h"
#include "storage/dynamic_store.h"
#include "storage/mapped.h"
#include "storage/packed.h"
#include "xml/writer.h"

namespace xmlsel {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The serving workload (XMark labels). The first entry is the
/// cold-start query; the whole set is the warm loop.
constexpr const char* kServingQueries[] = {
    "//listitem//keyword",
    "/site/people/person",
    "//item//mailbox",
    "//*",
};
constexpr size_t kServingQueryCount =
    sizeof(kServingQueries) / sizeof(kServingQueries[0]);

/// Peak resident set of this process, from /proc/self/status VmHWM.
int64_t VmHwmBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<int64_t>(kb) * 1024;
}

/// Current resident set, from /proc/self/statm.
int64_t StatmRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total = 0;
  long long resident = 0;
  int n = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

/// What one serving scenario (child process) reports back to the parent.
struct ScenarioResult {
  double open_seconds = 0;        ///< file → ready-to-serve
  double first_query_seconds = 0; ///< first query after open
  double warm_query_seconds = 0;  ///< avg per query, warm loop
  int64_t vm_hwm_bytes = 0;       ///< process peak RSS (VmHWM)
  int64_t rss_delta_bytes = 0;    ///< peak RSS minus RSS at scenario entry
  int64_t decoded_rules = 0;
  int64_t total_rules = 0;
  int64_t first_lower = 0;
  int64_t first_upper = 0;
  double total_seconds() const {
    return open_seconds + first_query_seconds;
  }
};

int PrintScenario(const ScenarioResult& r) {
  std::printf("%.9f %.9f %.9f %lld %lld %lld %lld %lld %lld\n",
              r.open_seconds, r.first_query_seconds, r.warm_query_seconds,
              static_cast<long long>(r.vm_hwm_bytes),
              static_cast<long long>(r.rss_delta_bytes),
              static_cast<long long>(r.decoded_rules),
              static_cast<long long>(r.total_rules),
              static_cast<long long>(r.first_lower),
              static_cast<long long>(r.first_upper));
  return 0;
}

/// Child scenario: open the image file zero-copy, answer the first query
/// off the lazily-decoded lossy layer, then run the warm loop.
int RunMappedScenario(const char* path, int warm_reps) {
  ScenarioResult r;
  int64_t entry_rss = StatmRssBytes();
  Clock::time_point t0 = Clock::now();
  MappedOpenOptions options;
  options.verify_checksum = false;
  Result<std::unique_ptr<MappedSynopsis>> opened =
      MappedSynopsis::Open(path, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const ServingSnapshot> snapshot = ServingSnapshot::FromMapped(
      std::shared_ptr<const MappedSynopsis>(std::move(opened).value()), 1);
  NameTable names = snapshot->base_names();
  auto estimate = [&](const char* xpath) {
    Result<Query> parsed = ParseQuery(xpath, &names);
    XMLSEL_CHECK(parsed.ok());
    return EstimateOnSnapshot(*snapshot, parsed.value());
  };
  r.open_seconds = SecondsSince(t0);
  t0 = Clock::now();
  Result<SelectivityEstimate> first = estimate(kServingQueries[0]);
  r.first_query_seconds = SecondsSince(t0);
  XMLSEL_CHECK(first.ok());
  r.first_lower = first.value().lower;
  r.first_upper = first.value().upper;
  t0 = Clock::now();
  for (int rep = 0; rep < warm_reps; ++rep) {
    for (const char* q : kServingQueries) {
      XMLSEL_CHECK(estimate(q).ok());
    }
  }
  r.warm_query_seconds = SecondsSince(t0) /
      (static_cast<double>(warm_reps) * kServingQueryCount);
  const MappedSynopsis& image = *snapshot->mapped_image();
  r.decoded_rules = image.Stats().decoded_rules();
  r.total_rules = image.lossy_layer().rule_count() +
                  image.lossless_layer().rule_count();
  r.vm_hwm_bytes = VmHwmBytes();
  r.rss_delta_bytes = r.vm_hwm_bytes - entry_rss;
  return PrintScenario(r);
}

/// Child scenario: thaw the same image file into a full in-memory
/// synopsis (every rule of both layers decoded, grammars rebuilt) —
/// the only serving form that existed before the mapped store.
int RunEagerScenario(const char* path, int warm_reps) {
  ScenarioResult r;
  int64_t entry_rss = StatmRssBytes();
  Clock::time_point t0 = Clock::now();
  MappedOpenOptions options;
  options.verify_checksum = false;
  Result<std::unique_ptr<MappedSynopsis>> image =
      MappedSynopsis::Open(path, options);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  Result<Synopsis> thawed = image.value()->Thaw();
  XMLSEL_CHECK(thawed.ok());
  image.value().reset();  // serving now owns a full copy; drop the map
  SelectivityEstimator est(std::move(thawed).value());
  r.open_seconds = SecondsSince(t0);
  t0 = Clock::now();
  Result<SelectivityEstimate> first = est.Estimate(kServingQueries[0]);
  r.first_query_seconds = SecondsSince(t0);
  XMLSEL_CHECK(first.ok());
  r.first_lower = first.value().lower;
  r.first_upper = first.value().upper;
  t0 = Clock::now();
  for (int rep = 0; rep < warm_reps; ++rep) {
    for (const char* q : kServingQueries) {
      XMLSEL_CHECK(est.Estimate(q).ok());
    }
  }
  r.warm_query_seconds = SecondsSince(t0) /
      (static_cast<double>(warm_reps) * kServingQueryCount);
  r.decoded_rules = est.synopsis().lossless().rule_count() +
                    est.synopsis().lossy().rule_count();
  r.total_rules = r.decoded_rules;
  r.vm_hwm_bytes = VmHwmBytes();
  r.rss_delta_bytes = r.vm_hwm_bytes - entry_rss;
  return PrintScenario(r);
}

/// Child scenario: the pre-mapped-store status quo — no serving file
/// format existed, so a cold server had to re-build the synopsis from
/// the XML text itself before answering anything.
int RunBuildScenario(const char* xml_path, int kappa, int warm_reps) {
  ScenarioResult r;
  int64_t entry_rss = StatmRssBytes();
  Clock::time_point t0 = Clock::now();
  std::ifstream in(xml_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", xml_path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string xml = buf.str();
  SynopsisOptions opts;
  opts.kappa = kappa;
  Result<Synopsis> built = Synopsis::BuildStreaming(xml, opts);
  XMLSEL_CHECK(built.ok());
  std::string().swap(xml);
  SelectivityEstimator est(std::move(built).value());
  r.open_seconds = SecondsSince(t0);
  t0 = Clock::now();
  Result<SelectivityEstimate> first = est.Estimate(kServingQueries[0]);
  r.first_query_seconds = SecondsSince(t0);
  XMLSEL_CHECK(first.ok());
  r.first_lower = first.value().lower;
  r.first_upper = first.value().upper;
  t0 = Clock::now();
  for (int rep = 0; rep < warm_reps; ++rep) {
    for (const char* q : kServingQueries) {
      XMLSEL_CHECK(est.Estimate(q).ok());
    }
  }
  r.warm_query_seconds = SecondsSince(t0) /
      (static_cast<double>(warm_reps) * kServingQueryCount);
  r.decoded_rules = est.synopsis().lossless().rule_count() +
                    est.synopsis().lossy().rule_count();
  r.total_rules = r.decoded_rules;
  r.vm_hwm_bytes = VmHwmBytes();
  r.rss_delta_bytes = r.vm_hwm_bytes - entry_rss;
  return PrintScenario(r);
}

/// Runs one serving scenario in a fresh child process (re-exec of this
/// binary via /proc/self/exe) so its timings and peak RSS are not
/// polluted by the parent's fixture building.
bool RunScenarioInChild(const char* scenario, const std::string& path,
                        int warm_reps, int kappa, ScenarioResult* out) {
  char self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return false;
  self[n] = '\0';
  std::string cmd = std::string("'") + self + "' --scenario " + scenario +
                    " '" + path + "' " + std::to_string(warm_reps) + " " +
                    std::to_string(kappa);
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  long long hwm = 0;
  long long rss_delta = 0;
  long long decoded = 0;
  long long total = 0;
  long long lower = 0;
  long long upper = 0;
  int fields = std::fscanf(
      pipe, "%lf %lf %lf %lld %lld %lld %lld %lld %lld", &out->open_seconds,
      &out->first_query_seconds, &out->warm_query_seconds, &hwm, &rss_delta,
      &decoded, &total, &lower, &upper);
  int status = ::pclose(pipe);
  out->vm_hwm_bytes = hwm;
  out->rss_delta_bytes = rss_delta;
  out->decoded_rules = decoded;
  out->total_rules = total;
  out->first_lower = lower;
  out->first_upper = upper;
  return fields == 9 && status == 0;
}

// --- §7 packed encoding vs pointers --------------------------------------

struct StaticRow {
  const char* dataset;
  int32_t rules;
  int64_t pointer_bytes;
  int64_t packed_bytes;
};

std::vector<StaticRow> StaticCase(int64_t elements) {
  std::vector<StaticRow> rows;
  std::printf("%-10s %8s %14s %12s %10s\n", "dataset", "rules",
              "pointers(KB)", "packed(KB)", "ratio");
  for (DatasetId id : {DatasetId::kDblp, DatasetId::kSwissProt,
                       DatasetId::kXmark, DatasetId::kPsd,
                       DatasetId::kCatalog}) {
    Document doc = GenerateDataset(id, elements, 3);
    SynopsisOptions opts;
    opts.kappa = 0;
    Synopsis s = Synopsis::Build(doc, opts);
    StaticRow row = {DatasetName(id), s.lossy().rule_count(),
                     PointerRepresentationSize(s.lossy()),
                     s.PackedSizeBytes()};
    std::printf("%-10s %8d %14.1f %12.1f %9.1fx\n", row.dataset, row.rules,
                static_cast<double>(row.pointer_bytes) / 1024.0,
                static_cast<double>(row.packed_bytes) / 1024.0,
                static_cast<double>(row.pointer_bytes) /
                    static_cast<double>(row.packed_bytes));
    rows.push_back(row);
  }
  return rows;
}

// --- Dynamic blocked store updates ---------------------------------------

struct DynamicStats {
  int64_t rules = 0;
  int64_t payload_bytes = 0;
  int64_t occupied_bytes = 0;
  int64_t blocks = 0;
  int64_t ops = 0;
  int64_t bytes_moved = 0;
};

DynamicStats DynamicCase(int64_t elements, int64_t ops) {
  Document doc = GenerateDataset(DatasetId::kCatalog, elements, 3);
  SynopsisOptions opts;
  opts.kappa = 0;
  Synopsis s = Synopsis::Build(doc, opts);
  DynamicSynopsisStore store =
      DynamicSynopsisStore::FromGrammar(s.lossy(), s.names().size(), 512);
  int64_t loaded_moved = store.bytes_moved();
  Rng rng(11);
  for (int64_t i = 0; i < ops; ++i) {
    int64_t idx = rng.Uniform(0, store.size() - 1);
    int64_t op = rng.Uniform(0, 2);
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.Uniform(4, 60)),
                               0x5A);
    if (op == 0) {
      store.Replace(idx, std::move(bytes));
    } else if (op == 1) {
      store.Insert(idx, std::move(bytes));
    } else if (store.size() > 1) {
      store.Erase(idx);
    }
  }
  store.CheckInvariants();
  DynamicStats d;
  d.rules = store.size();
  d.payload_bytes = store.payload_bytes();
  d.occupied_bytes = store.occupied_bytes();
  d.blocks = store.block_count();
  d.ops = ops;
  d.bytes_moved = store.bytes_moved() - loaded_moved;
  std::printf(
      "dynamic store: %lld rules, %lld update ops, %.1f bytes moved/op\n",
      static_cast<long long>(d.rules), static_cast<long long>(d.ops),
      static_cast<double>(d.bytes_moved) / static_cast<double>(d.ops));
  return d;
}

// --- Corruption rejection drill ------------------------------------------

/// Builds a small image and confirms that truncation, bad magic, and
/// payload bit-flips are all rejected at open. Returns true when every
/// corruption was diagnosed (the CI smoke job gates on this).
bool CorruptionDrill() {
  Document doc = GenerateDataset(DatasetId::kXmark, 600, 17);
  SynopsisOptions opts;
  opts.kappa = 6;
  Synopsis s = Synopsis::Build(doc, opts);
  std::vector<uint8_t> image = BuildMappedImage(s);
  MappedOpenOptions verify;
  verify.verify_checksum = true;
  // Sanity: the pristine image opens.
  if (!MappedSynopsis::FromBuffer(image, verify).ok()) return false;
  // Truncation.
  std::vector<uint8_t> truncated(image.begin(),
                                 image.begin() + image.size() / 2);
  if (MappedSynopsis::FromBuffer(truncated, verify).ok()) return false;
  // Bad magic.
  std::vector<uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xFF;
  if (MappedSynopsis::FromBuffer(bad_magic, verify).ok()) return false;
  // Payload bit-flips (both layers' payload regions).
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() - 1] ^= 0x10;
  if (MappedSynopsis::FromBuffer(flipped, verify).ok()) return false;
  return true;
}

// --- Harness -------------------------------------------------------------

int Run(bool smoke, const char* out_path) {
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  bench::HostFingerprint fp = bench::CurrentHostFingerprint();

  // 1. §7 packed encoding.
  std::vector<StaticRow> rows = StaticCase(smoke ? 2000 : 50000);

  // 2. Dynamic blocked store.
  DynamicStats dyn = DynamicCase(smoke ? 3000 : 30000, smoke ? 300 : 2000);

  // 3. Zero-copy serving: pack the largest fixture to a file, then race
  // three cold children: mapped (this PR), eager (thaw the same file
  // into a full synopsis), and build (the pre-file status quo:
  // re-construct from XML text). The fixture is the paper's serving
  // configuration — a large document whose lossless layer lives on disk
  // while an aggressively κ-compressed lossy layer answers queries.
  const int64_t serving_elements = smoke ? 3000 : 1000000;
  const int32_t serving_rules_target = smoke ? 150 : 400;
  std::string stem =
      std::string("/tmp/bench_storage_") + std::to_string(::getpid());
  std::string image_path = stem + ".synopsis";
  std::string xml_path = stem + ".xml";
  int64_t image_bytes = 0;
  int32_t serving_kappa = 0;
  int64_t lossless_rules = 0;
  int64_t lossy_rules = 0;
  {
    Document doc = GenerateDataset(DatasetId::kXmark, serving_elements, 3);
    std::ofstream xml_out(xml_path, std::ios::binary);
    xml_out << WriteXml(doc);
    xml_out.close();
    SynopsisOptions sopts;
    sopts.kappa = 0;
    Synopsis s = Synopsis::Build(doc, sopts);
    // κ-compress the serving layer down to roughly the target size.
    serving_kappa = static_cast<int32_t>(
        std::max<int64_t>(0, s.lossless().rule_count() -
                                 serving_rules_target));
    s.RecomputeLossy(serving_kappa);
    lossless_rules = s.lossless().rule_count();
    lossy_rules = s.lossy().rule_count();
    Status st = PackSynopsisToFile(s, image_path);
    XMLSEL_CHECK(st.ok());
    image_bytes = static_cast<int64_t>(BuildMappedImage(s).size());
  }
  std::printf(
      "serving fixture: XMark %lld elements, kappa=%d "
      "(lossless %lld rules, serving layer %lld rules, image %lld B)\n",
      static_cast<long long>(serving_elements), serving_kappa,
      static_cast<long long>(lossless_rules),
      static_cast<long long>(lossy_rules),
      static_cast<long long>(image_bytes));
  const int warm_reps = smoke ? 5 : 25;
  ScenarioResult mapped;
  ScenarioResult eager;
  ScenarioResult build;
  XMLSEL_CHECK(
      RunScenarioInChild("mapped", image_path, warm_reps, 0, &mapped));
  XMLSEL_CHECK(
      RunScenarioInChild("eager", image_path, warm_reps, 0, &eager));
  XMLSEL_CHECK(RunScenarioInChild("build", xml_path, warm_reps,
                                  serving_kappa, &build));
  std::remove(image_path.c_str());
  std::remove(xml_path.c_str());

  // Same answers out of all three serving forms.
  XMLSEL_CHECK(mapped.first_lower == eager.first_lower);
  XMLSEL_CHECK(mapped.first_upper == eager.first_upper);
  XMLSEL_CHECK(mapped.first_lower == build.first_lower);
  XMLSEL_CHECK(mapped.first_upper == build.first_upper);

  double cold_start_speedup = eager.total_seconds() / mapped.total_seconds();
  double speedup_vs_build = build.total_seconds() / mapped.total_seconds();
  // Queries until the eager path amortizes its upfront decode: 0 when
  // eager is already ahead at the first query, finite when mapped warm
  // queries are slower per query, else -1 (never).
  const double upfront = eager.total_seconds() - mapped.total_seconds();
  const double warm_delta =
      mapped.warm_query_seconds - eager.warm_query_seconds;
  double parity = -1.0;
  if (upfront <= 0) {
    parity = 0.0;
  } else if (warm_delta > 0) {
    parity = upfront / warm_delta;
  }
  const struct {
    const char* name;
    const ScenarioResult* r;
  } kScenarios[] = {
      {"mapped", &mapped}, {"eager", &eager}, {"build", &build}};
  for (const auto& sc : kScenarios) {
    std::printf(
        "  %-6s open %9.6fs  first query %9.6fs  total %9.6fs  "
        "peak RSS %6lld KB (+%lld KB)  decoded %lld/%lld rules  "
        "warm %8.2fus\n",
        sc.name, sc.r->open_seconds, sc.r->first_query_seconds,
        sc.r->total_seconds(),
        static_cast<long long>(sc.r->vm_hwm_bytes / 1024),
        static_cast<long long>(sc.r->rss_delta_bytes / 1024),
        static_cast<long long>(sc.r->decoded_rules),
        static_cast<long long>(sc.r->total_rules),
        sc.r->warm_query_seconds * 1e6);
  }
  std::printf(
      "  cold-start-to-first-query speedup: %.1fx vs eager thaw, "
      "%.1fx vs rebuild-from-XML\n"
      "  queries until eager parity: %.0f\n",
      cold_start_speedup, speedup_vs_build, parity);

  // 4. Corruption rejection.
  bool corruption_rejected = CorruptionDrill();
  std::printf("corruption drill: %s\n",
              corruption_rejected ? "all rejected" : "FAILED");

  if (smoke) {
    // The structural claims CI gates on, independent of timing noise.
    XMLSEL_CHECK(corruption_rejected);
    XMLSEL_CHECK(mapped.decoded_rules < mapped.total_rules);
    XMLSEL_CHECK(mapped.decoded_rules > 0);
    XMLSEL_CHECK(mapped.vm_hwm_bytes > 0 && eager.vm_hwm_bytes > 0);
    std::printf("smoke: lazy decode and corruption gates hold\n");
  }

  // --- JSON: the tracked BENCH_storage.json (flat object, like
  // bench_serving).
  std::fprintf(f, "{\n");
  std::fprintf(f, "    \"bench\": \"storage\",\n");
  std::fprintf(f, "    \"smoke\": %s,\n", smoke ? "true" : "false");
  bench::WriteHostFingerprintJson(f, "    ", fp);
  std::fprintf(f, "    \"packed_static\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const StaticRow& r = rows[i];
    std::fprintf(f,
                 "      {\"dataset\": \"%s\", \"rules\": %d, "
                 "\"pointer_bytes\": %lld, \"packed_bytes\": %lld, "
                 "\"ratio\": %.2f}%s\n",
                 r.dataset, r.rules,
                 static_cast<long long>(r.pointer_bytes),
                 static_cast<long long>(r.packed_bytes),
                 static_cast<double>(r.pointer_bytes) /
                     static_cast<double>(r.packed_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"dynamic_store\": {\"rules\": %lld, \"payload_bytes\": "
               "%lld, \"occupied_bytes\": %lld, \"blocks\": %lld, "
               "\"update_ops\": %lld, \"bytes_moved_per_op\": %.1f},\n",
               static_cast<long long>(dyn.rules),
               static_cast<long long>(dyn.payload_bytes),
               static_cast<long long>(dyn.occupied_bytes),
               static_cast<long long>(dyn.blocks),
               static_cast<long long>(dyn.ops),
               static_cast<double>(dyn.bytes_moved) /
                   static_cast<double>(dyn.ops));
  std::fprintf(f, "    \"serving\": {\n");
  std::fprintf(f, "      \"dataset\": \"xmark\",\n");
  std::fprintf(f, "      \"elements\": %lld,\n",
               static_cast<long long>(serving_elements));
  std::fprintf(f, "      \"kappa\": %d,\n", serving_kappa);
  std::fprintf(f, "      \"image_bytes\": %lld,\n",
               static_cast<long long>(image_bytes));
  std::fprintf(f, "      \"lossless_rules\": %lld,\n",
               static_cast<long long>(lossless_rules));
  std::fprintf(f, "      \"serving_rules\": %lld,\n",
               static_cast<long long>(lossy_rules));
  for (const auto& sc : kScenarios) {
    std::fprintf(
        f,
        "      \"%s\": {\"open_seconds\": %.6f, "
        "\"first_query_seconds\": %.6f, "
        "\"cold_start_to_first_query_seconds\": %.6f, "
        "\"warm_query_seconds\": %.9f, \"peak_rss_bytes\": %lld, "
        "\"peak_rss_delta_bytes\": %lld, \"decoded_rules\": %lld, "
        "\"total_rules\": %lld},\n",
        sc.name, sc.r->open_seconds, sc.r->first_query_seconds,
        sc.r->total_seconds(), sc.r->warm_query_seconds,
        static_cast<long long>(sc.r->vm_hwm_bytes),
        static_cast<long long>(sc.r->rss_delta_bytes),
        static_cast<long long>(sc.r->decoded_rules),
        static_cast<long long>(sc.r->total_rules));
  }
  std::fprintf(f, "      \"cold_start_speedup\": %.2f,\n",
               cold_start_speedup);
  std::fprintf(f, "      \"cold_start_speedup_vs_build\": %.2f,\n",
               speedup_vs_build);
  std::fprintf(f, "      \"peak_rss_delta_ratio\": %.3f,\n",
               static_cast<double>(mapped.rss_delta_bytes) /
                   static_cast<double>(eager.rss_delta_bytes));
  // queries_until_parity: 0 = eager ahead from the first query,
  // -1 = mapped never overtaken, else the crossover query count.
  std::fprintf(f, "      \"queries_until_parity\": %.0f\n", parity);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"corruption_rejected\": %s\n",
               corruption_rejected ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return corruption_rejected ? 0 : 1;
}

}  // namespace
}  // namespace xmlsel

int main(int argc, char** argv) {
  // Hidden child mode used by the serving measurement: run one scenario
  // in a fresh process and print its metrics on stdout.
  if (argc >= 4 && std::strcmp(argv[1], "--scenario") == 0) {
    int warm_reps = argc > 4 ? std::atoi(argv[4]) : 10;
    int kappa = argc > 5 ? std::atoi(argv[5]) : 0;
    if (std::strcmp(argv[2], "mapped") == 0) {
      return xmlsel::RunMappedScenario(argv[3], warm_reps);
    }
    if (std::strcmp(argv[2], "eager") == 0) {
      return xmlsel::RunEagerScenario(argv[3], warm_reps);
    }
    if (std::strcmp(argv[2], "build") == 0) {
      return xmlsel::RunBuildScenario(argv[3], kappa, warm_reps);
    }
    std::fprintf(stderr, "unknown scenario %s\n", argv[2]);
    return 2;
  }
  bool smoke = false;
  const char* out = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out = argv[i];
    }
  }
  return xmlsel::Run(smoke, out);
}
