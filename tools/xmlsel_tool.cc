// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Command-line front end for the library:
//
//   xmlsel_tool stats    <file.xml>
//       Table-1-style characteristics plus compression ratios.
//   xmlsel_tool compress <file.xml> [kappa]
//       Build the synopsis; dump the (lossy) grammar and sizes.
//   xmlsel_tool estimate <file.xml> <xpath> [kappa]
//       Estimate the selectivity of an XPath query with guaranteed
//       bounds, and report the exact count for comparison.
//   xmlsel_tool generate <dblp|swissprot|xmark|psd|catalog> <elements>
//       Emit a synthetic dataset as XML on stdout.
//   xmlsel_tool verify   <file.xml> [kappa]
//       Run the cross-layer invariant verifier (src/verify) over every
//       pipeline stage built from the document; print a per-layer report.
//   xmlsel_tool pack     <file.xml> <out.synopsis> [kappa]
//       Build the synopsis (streaming) and write the mmap-able packed
//       image; audit the written file before reporting success.
//   xmlsel_tool serve-file <file.synopsis> <xpath> [xpath ...]
//       Estimate queries straight off the packed image — no document, no
//       full decode; report bounds plus decode-cache occupancy.
//   xmlsel_tool serve [--memory-budget=BYTES] <tenant=file> [...]
//       Multi-tenant serving: publish each file into the sharded catalog
//       (.synopsis images are mmap-served with lazy decode, anything else
//       is parsed as XML and served eagerly), then read "tenant xpath"
//       lines from stdin until EOF, estimate each tenant's lines as one
//       batch on a shared thread pool, print the answers in input order,
//       and report per-tenant versions, cache stats, and residency.
//       --memory-budget caps the summed decode-cache residency of all
//       mapped tenants: the catalog evicts decoded rules (largest images
//       first, CLOCK within each) back under the budget on every publish
//       and before the final report, and the report includes the
//       catalog-wide residency and eviction counters.
//
// Numeric arguments (kappa, element counts, byte budgets) must be whole
// decimal numbers in range; anything else is a usage error (exit 2).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/exact.h"
#include "data/fb_index.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "verify/verify.h"
#include "xml/parser.h"
#include "xml/stats.h"
#include "xml/writer.h"

namespace {

int Usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "xmlsel_tool: %s\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  xmlsel_tool stats    <file.xml>\n"
               "  xmlsel_tool compress <file.xml> [kappa]\n"
               "  xmlsel_tool estimate <file.xml> <xpath> [kappa]\n"
               "  xmlsel_tool generate <dataset> <elements>\n"
               "  xmlsel_tool verify   <file.xml> [kappa]\n"
               "  xmlsel_tool pack     <file.xml> <out.synopsis> [kappa]\n"
               "  xmlsel_tool serve-file <file.synopsis> <xpath> "
               "[xpath ...]\n"
               "  xmlsel_tool serve    [--memory-budget=BYTES] "
               "<tenant=file> [tenant=file ...]\n"
               "      (then \"tenant xpath\" lines on stdin)\n");
  return 2;
}

/// Parses all of `text` as a decimal number in [lo, hi]. Signs, trailing
/// characters, overflow and out-of-range values all fail.
template <typename T>
bool ParseNumber(const char* text, T lo, T hi, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

constexpr char kBadKappa[] = "kappa wants a non-negative integer";

/// Reads the optional kappa argument `argv[index]` (0 when absent).
bool ParseKappa(int argc, char** argv, int index, int* kappa) {
  *kappa = 0;
  return argc <= index ||
         ParseNumber(argv[index], 0, std::numeric_limits<int>::max(), kappa);
}

xmlsel::Result<xmlsel::Document> Load(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return xmlsel::Status::NotFound(std::string("cannot open ") + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  return xmlsel::ParseXml(text);
}

int Stats(const char* path) {
  auto doc = Load(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xmlsel::DocumentStats stats = xmlsel::ComputeStats(doc.value());
  std::printf("%s\n", stats.ToString().c_str());
  xmlsel::FbIndex fb(doc.value());
  std::printf("F/B index size: %lld classes (%d refinement rounds)\n",
              static_cast<long long>(fb.size()), fb.rounds());
  xmlsel::SltGrammar g = xmlsel::BplexCompress(doc.value());
  std::printf("SLT grammar: %d rules, %lld nodes, %lld edges (%.2f%% of "
              "document edges)\n",
              g.rule_count(), static_cast<long long>(g.NodeCount()),
              static_cast<long long>(g.EdgeCount()),
              100.0 * static_cast<double>(g.EdgeCount()) /
                  static_cast<double>(stats.element_count));
  return 0;
}

int Compress(const char* path, int kappa) {
  auto doc = Load(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xmlsel::SynopsisOptions options;
  options.kappa = kappa;
  xmlsel::Synopsis s = xmlsel::Synopsis::Build(doc.value(), options);
  std::printf("lossless: %d rules / %lld nodes; lossy (kappa=%d): %d rules "
              "/ %lld nodes; packed %lld bytes\n",
              s.lossless().rule_count(),
              static_cast<long long>(s.lossless().NodeCount()), kappa,
              s.lossy().rule_count(),
              static_cast<long long>(s.lossy().NodeCount()),
              static_cast<long long>(s.PackedSizeBytes()));
  std::printf("%s", s.lossy().ToString(s.names()).c_str());
  return 0;
}

int Estimate(const char* path, const char* xpath, int kappa) {
  auto doc = Load(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xmlsel::SynopsisOptions options;
  options.kappa = kappa;
  xmlsel::SelectivityEstimator est =
      xmlsel::SelectivityEstimator::Build(doc.value(), options);
  auto r = est.Estimate(xpath);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("%s -> [%lld, %lld] (synopsis %lld bytes)\n", xpath,
              static_cast<long long>(r.value().lower),
              static_cast<long long>(r.value().upper),
              static_cast<long long>(est.SizeBytes()));
  // Exact reference (the oracle reads the document directly).
  xmlsel::NameTable names = doc.value().names();
  auto q = xmlsel::ParseQuery(xpath, &names);
  if (q.ok()) {
    auto rw = xmlsel::RewriteReverseAxes(q.value());
    if (rw.ok() && !rw.value().unsatisfiable) {
      xmlsel::ExactEvaluator oracle(doc.value());
      std::printf("exact: %lld\n",
                  static_cast<long long>(oracle.Count(rw.value().query)));
    }
  }
  return 0;
}

int Generate(const char* name, int64_t elements) {
  xmlsel::DatasetId id;
  if (!std::strcmp(name, "dblp")) {
    id = xmlsel::DatasetId::kDblp;
  } else if (!std::strcmp(name, "swissprot")) {
    id = xmlsel::DatasetId::kSwissProt;
  } else if (!std::strcmp(name, "xmark")) {
    id = xmlsel::DatasetId::kXmark;
  } else if (!std::strcmp(name, "psd")) {
    id = xmlsel::DatasetId::kPsd;
  } else if (!std::strcmp(name, "catalog")) {
    id = xmlsel::DatasetId::kCatalog;
  } else {
    return Usage("unknown dataset (want dblp|swissprot|xmark|psd|catalog)");
  }
  xmlsel::Document doc = xmlsel::GenerateDataset(id, elements, 42);
  xmlsel::WriteOptions wopts;
  wopts.indent = 1;
  std::fputs(xmlsel::WriteXml(doc, wopts).c_str(), stdout);
  return 0;
}

int Pack(const char* xml_path, const char* out_path, int kappa) {
  auto doc = Load(xml_path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xmlsel::SynopsisOptions options;
  options.kappa = kappa;
  xmlsel::Synopsis s = xmlsel::Synopsis::Build(doc.value(), options);
  xmlsel::Status st = xmlsel::PackSynopsisToFile(s, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Re-open what was actually written and audit it before claiming success.
  xmlsel::MappedOpenOptions mopts;
  mopts.verify_checksum = true;
  auto image = xmlsel::MappedSynopsis::Open(out_path, mopts);
  if (!image.ok()) {
    std::fprintf(stderr, "packed image fails to re-open: %s\n",
                 image.status().ToString().c_str());
    return 1;
  }
  st = xmlsel::VerifyMappedImage(*image.value());
  if (!st.ok()) {
    std::fprintf(stderr, "packed image fails verification: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const xmlsel::MappedSynopsis& m = *image.value();
  std::printf("%s: %lld bytes (kappa=%d, %lld elements)\n", out_path,
              static_cast<long long>(m.file_bytes()), m.kappa(),
              static_cast<long long>(m.element_total()));
  std::printf("  lossless layer: %lld rules\n",
              static_cast<long long>(m.lossless_layer().rule_count()));
  std::printf("  lossy layer:    %lld rules (%d productions deleted)\n",
              static_cast<long long>(m.lossy_layer().rule_count()),
              m.deleted_productions());
  return 0;
}

int ServeFile(const char* syn_path, char** xpaths, int count) {
  xmlsel::MappedOpenOptions options;
  options.verify_checksum = true;
  auto image = xmlsel::MappedSynopsis::Open(syn_path, options);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  auto snapshot = xmlsel::ServingSnapshot::FromMapped(
      std::shared_ptr<const xmlsel::MappedSynopsis>(std::move(image).value()),
      1);
  std::vector<std::string_view> queries(xpaths, xpaths + count);
  xmlsel::NameTable scratch = snapshot->base_names();
  std::vector<xmlsel::Result<xmlsel::SelectivityEstimate>> results =
      xmlsel::EstimateStringsOnSnapshot(*snapshot, queries, &scratch);
  int failures = 0;
  for (int i = 0; i < count; ++i) {
    const auto& r = results[static_cast<size_t>(i)];
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", xpaths[i],
                   r.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%s -> [%lld, %lld]\n", xpaths[i],
                static_cast<long long>(r.value().lower),
                static_cast<long long>(r.value().upper));
  }
  xmlsel::MappedCacheStats stats =
      snapshot->mapped_image()->lossy_layer().cache_stats();
  std::printf("decode cache: %lld/%lld rules decoded, %lld bytes resident, "
              "%lld hits / %lld misses\n",
              static_cast<long long>(stats.decoded_rules),
              static_cast<long long>(stats.total_rules),
              static_cast<long long>(stats.resident_bytes),
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses));
  return failures == 0 ? 0 : 1;
}

bool EndsWith(const char* s, const char* suffix) {
  size_t n = std::strlen(s), m = std::strlen(suffix);
  return n >= m && std::strcmp(s + (n - m), suffix) == 0;
}

int Serve(char** specs, int count) {
  xmlsel::ServingCatalog catalog;
  int64_t budget = 0;
  if (count > 0 && !std::strncmp(specs[0], "--memory-budget=", 16)) {
    if (!ParseNumber<int64_t>(specs[0] + 16, 1,
                              std::numeric_limits<int64_t>::max(), &budget)) {
      return Usage("--memory-budget wants a positive byte count");
    }
    catalog.SetDecodeBudget(budget);
    ++specs;
    --count;
  }
  if (count < 1) return Usage("serve needs at least one tenant=file");
  for (int i = 0; i < count; ++i) {
    const char* eq = std::strchr(specs[i], '=');
    if (eq == nullptr || eq == specs[i] || eq[1] == '\0') {
      return Usage("serve wants tenant=file specs");
    }
    std::string tenant(specs[i], static_cast<size_t>(eq - specs[i]));
    const char* path = eq + 1;
    if (EndsWith(path, ".synopsis")) {
      auto version = catalog.PublishFile(tenant, path);
      if (!version.ok()) {
        std::fprintf(stderr, "%s: %s\n", path,
                     version.status().ToString().c_str());
        return 1;
      }
      std::printf("published '%s' v%llu (mapped, %s)\n", tenant.c_str(),
                  static_cast<unsigned long long>(version.value()), path);
    } else {
      auto doc = Load(path);
      if (!doc.ok()) {
        std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
        return 1;
      }
      auto synopsis = std::make_shared<xmlsel::Synopsis>(
          xmlsel::Synopsis::Build(doc.value(), xmlsel::SynopsisOptions{}));
      uint64_t version = catalog.PublishSynopsis(tenant, std::move(synopsis));
      std::printf("published '%s' v%llu (eager, %s)\n", tenant.c_str(),
                  static_cast<unsigned long long>(version), path);
    }
  }
  xmlsel::Status audit = xmlsel::VerifyServingCatalog(catalog);
  if (!audit.ok()) {
    std::fprintf(stderr, "catalog audit failed: %s\n",
                 audit.ToString().c_str());
    return 1;
  }

  // stdin is the only producer and nothing is reported before EOF, so
  // read every request first and estimate each tenant's lines as one
  // batch. Lines without a query after the tenant are skipped.
  struct Request {
    std::string tenant;
    std::string xpath;
    size_t slot = 0;  ///< position within the tenant's batch
  };
  std::vector<Request> requests;
  std::string line;
  while (std::getline(std::cin, line)) {
    size_t sep = line.find_first_of(" \t");
    if (sep == std::string::npos) continue;
    size_t start = line.find_first_not_of(" \t", sep);
    if (start == std::string::npos) continue;
    requests.push_back({line.substr(0, sep), line.substr(start)});
  }
  std::map<std::string, std::vector<std::string_view>> batches;
  for (Request& r : requests) {
    std::vector<std::string_view>& batch = batches[r.tenant];
    r.slot = batch.size();
    batch.push_back(r.xpath);
  }
  xmlsel::ThreadPool pool(xmlsel::DefaultThreadCount());
  std::map<std::string, xmlsel::Result<xmlsel::BatchOutcome>> outcomes;
  for (const auto& [tenant, xpaths] : batches) {
    outcomes.emplace(tenant, catalog.EstimateStrings(tenant, xpaths,
                                                     pool.size(), &pool));
  }
  int failures = 0;
  for (const Request& r : requests) {
    const xmlsel::Result<xmlsel::BatchOutcome>& outcome =
        outcomes.at(r.tenant);
    xmlsel::Status error = outcome.ok()
                               ? outcome.value().results[r.slot].status()
                               : outcome.status();
    if (!error.ok()) {
      std::fprintf(stderr, "%s %s: %s\n", r.tenant.c_str(), r.xpath.c_str(),
                   error.ToString().c_str());
      ++failures;
      continue;
    }
    const xmlsel::SelectivityEstimate& est =
        outcome.value().results[r.slot].value();
    std::printf("%s %s -> [%lld, %lld] (v%llu)\n", r.tenant.c_str(),
                r.xpath.c_str(), static_cast<long long>(est.lower),
                static_cast<long long>(est.upper),
                static_cast<unsigned long long>(
                    outcome.value().snapshot_version));
  }

  // With a budget set, bring residency back under it before the report
  // (stdin-driven estimation re-decodes freely between publishes).
  if (budget > 0) {
    catalog.EnforceDecodeBudget();
    catalog.ReclaimEvictedRules();
  }
  for (const std::string& tenant : catalog.Tenants()) {
    auto stats = catalog.TenantStats(tenant);
    if (!stats.ok()) continue;
    const xmlsel::SnapshotStats& s = stats.value();
    std::printf("tenant '%s': v%llu %s, %lld elements, compiled cache "
                "%lld entries (%lld hits / %lld misses)",
                tenant.c_str(), static_cast<unsigned long long>(s.version),
                s.mapped ? "mapped" : "eager",
                static_cast<long long>(s.element_total),
                static_cast<long long>(s.compile_cache_size),
                static_cast<long long>(s.compile_cache_hits),
                static_cast<long long>(s.compile_cache_misses));
    if (s.mapped) {
      std::printf(", %lld rules decoded / %lld bytes resident of %llu on "
                  "disk",
                  static_cast<long long>(s.residency.decoded_rules()),
                  static_cast<long long>(s.residency.resident_bytes()),
                  static_cast<unsigned long long>(s.residency.file_bytes));
    }
    std::printf("\n");
  }
  xmlsel::CatalogStats cs = catalog.Stats();
  std::printf("catalog: %lld tenants over %d shards, %lld hits / %lld "
              "misses, %lld publishes, %lld reader fast-path locks\n",
              static_cast<long long>(cs.tenants), catalog.shard_count(),
              static_cast<long long>(cs.hits),
              static_cast<long long>(cs.misses),
              static_cast<long long>(cs.publishes),
              static_cast<long long>(cs.reader_fast_path_locks));
  std::printf("decode cache: %lld rules / %lld bytes resident across "
              "images, %lld evictions, budget %s\n",
              static_cast<long long>(cs.decoded_rules),
              static_cast<long long>(cs.decode_resident_bytes),
              static_cast<long long>(cs.decode_evictions),
              cs.decode_budget_bytes > 0
                  ? (std::to_string(cs.decode_budget_bytes) + " bytes").c_str()
                  : "unbounded");
  return failures == 0 ? 0 : 1;
}

int Verify(const char* path, int kappa) {
  auto doc = Load(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xmlsel::SynopsisOptions options;
  options.kappa = kappa;
  xmlsel::VerifyReport report = xmlsel::VerifyPipeline(doc.value(), options);
  std::fputs(report.ToString().c_str(), stdout);
  if (!report.ok()) {
    std::fprintf(stderr, "verification FAILED\n");
    return 1;
  }
  std::printf("all layers verified\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing subcommand");
  int kappa = 0;
  if (!std::strcmp(argv[1], "stats")) {
    if (argc < 3) return Usage("stats needs <file.xml>");
    return Stats(argv[2]);
  }
  if (!std::strcmp(argv[1], "compress")) {
    if (argc < 3) return Usage("compress needs <file.xml>");
    if (!ParseKappa(argc, argv, 3, &kappa)) return Usage(kBadKappa);
    return Compress(argv[2], kappa);
  }
  if (!std::strcmp(argv[1], "estimate")) {
    if (argc < 4) return Usage("estimate needs <file.xml> <xpath>");
    if (!ParseKappa(argc, argv, 4, &kappa)) return Usage(kBadKappa);
    return Estimate(argv[2], argv[3], kappa);
  }
  if (!std::strcmp(argv[1], "generate")) {
    if (argc < 4) return Usage("generate needs <dataset> <elements>");
    // Node ids are 32-bit, which bounds the document size.
    int64_t elements = 0;
    if (!ParseNumber<int64_t>(argv[3], 1, std::numeric_limits<int32_t>::max(),
                              &elements)) {
      return Usage("generate wants a positive element count");
    }
    return Generate(argv[2], elements);
  }
  if (!std::strcmp(argv[1], "verify")) {
    if (argc < 3) return Usage("verify needs <file.xml>");
    if (!ParseKappa(argc, argv, 3, &kappa)) return Usage(kBadKappa);
    return Verify(argv[2], kappa);
  }
  if (!std::strcmp(argv[1], "pack")) {
    if (argc < 4) return Usage("pack needs <file.xml> <out.synopsis>");
    if (!ParseKappa(argc, argv, 4, &kappa)) return Usage(kBadKappa);
    return Pack(argv[2], argv[3], kappa);
  }
  if (!std::strcmp(argv[1], "serve-file")) {
    if (argc < 4) return Usage("serve-file needs <file.synopsis> <xpath>");
    return ServeFile(argv[2], argv + 3, argc - 3);
  }
  if (!std::strcmp(argv[1], "serve")) {
    if (argc < 3) return Usage("serve needs at least one tenant=file");
    return Serve(argv + 2, argc - 2);
  }
  return Usage("unknown subcommand");
}
