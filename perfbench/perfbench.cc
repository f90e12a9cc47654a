// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Closed-loop, single-client benchmark of the xmlsel serving stack.
//
//   perfbench --workload <serve-star|serve-exact|update-mix> --seed <n>
//             --seconds <s> --trace <0|1> --dir <scratch dir> [--short]
//   perfbench --workload probe      (one host speed probe, in µs)
//
// One client thread issues one request at a time and waits for its answer.
// Every estimate passes threads = 1, so no library pool runs: latency is
// service time, not queueing behind sibling tasks. The seed generates the
// document, the query mix and the update stream; the library only sees
// the generated inputs.
//
// --trace 0 measures the end-to-end metrics through the public serving
// API (ServingCatalog). --trace 1 replays the same requests by calling
// each layer's public functions from this file, records a span around
// each call (trace.h), and reports per-layer time and counts. Both modes
// check every answer: bit-identical to an eager SelectivityEstimator over
// the same synopsis state, and lo <= exact <= hi against ExactEvaluator.
// A failed check counts as a failed operation and makes the exit code 1.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "data/generator.h"
#include "estimator/estimator.h"
#include "estimator/serving.h"
#include "estimator/synopsis.h"
#include "estimator/update.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "trace.h"
#include "workload/query_gen.h"
#include "xml/binary_tree.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xmlsel/rcu.h"

namespace perfbench {
namespace {

using xmlsel::Document;
using xmlsel::NodeId;
using xmlsel::Result;
using xmlsel::SelectivityEstimate;
using xmlsel::Status;

constexpr std::string_view kTenant = "bench";
constexpr std::string_view kFirstTenant = "first-answer";

// ---------------------------------------------------------------------------
// Workloads

enum class KappaRule {
  kStarLayer,  ///< lossless rules minus kStarLayerRules: a lossy layer of ★s
  kZero,       ///< lossless serving
  kFraction,   ///< kUpdateKappaFraction of the lossless rules
};

constexpr int32_t kStarLayerRules = 400;
constexpr double kUpdateKappaFraction = 0.17;

struct Config {
  const char* name = "";
  int64_t elements = 0;
  KappaRule kappa_rule = KappaRule::kZero;
  bool mapped = true;     ///< serve the §7 image (else the eager synopsis)
  bool budgeted = false;  ///< decode budget at half the warm residency
  int32_t queries = 0;    ///< distinct queries in the mix
  int32_t min_estimates = 0;  ///< floor of the measured estimate loop
  int32_t min_updates = 0;    ///< floor of the update loop
  int32_t estimates_per_update = 0;  ///< measured estimates after an update
  int32_t setup_reps = 0;
  int32_t first_answer_opens = 0;
  int32_t trace_requests = 0;  ///< estimates replayed per traced pass
};

// Why each workload exists is recorded in NOTES.md. In short: serve-star
// loads the ★ upper bound and the κ-lossy pass, serve-exact bypasses both
// and runs the decode cache past its budget, update-mix runs §6 updates
// (RecomputeLossy) with cold per-version caches on the eager form.
bool ConfigFor(std::string_view name, bool short_mode, Config* c) {
  if (name == "serve-star") {
    *c = {"serve-star", 100000, KappaRule::kStarLayer, true, false,
          400, 1000, 24, 0, 3, 400, 400};
  } else if (name == "serve-exact") {
    *c = {"serve-exact", 100000, KappaRule::kZero, true, true,
          400, 1000, 40, 0, 5, 400, 400};
  } else if (name == "update-mix") {
    *c = {"update-mix", 20000, KappaRule::kFraction, false, false,
          400, 0, 200, 8, 5, 400, 0};
  } else {
    return false;
  }
  if (short_mode) {
    c->elements /= 5;
    c->queries = 40;
    c->min_estimates = std::min(c->min_estimates, 100);
    c->min_updates = std::min(c->min_updates, 10);
    c->setup_reps = 1;
    c->first_answer_opens = 10;
    c->trace_requests = std::min(c->trace_requests, 40);
  }
  return true;
}

int32_t KappaFor(const Config& c, int32_t lossless_rules) {
  switch (c.kappa_rule) {
    case KappaRule::kZero:
      return 0;
    case KappaRule::kStarLayer:
      return std::max(lossless_rules - kStarLayerRules, lossless_rules / 2);
    case KappaRule::kFraction:
      return std::max<int32_t>(
          1, static_cast<int32_t>(kUpdateKappaFraction * lossless_rules));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Bookkeeping

/// Every operation attempted is either correct or failed.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok, const char* what, const std::string& detail) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 20) {
      std::fprintf(stderr, "FAILED %s: %s\n", what, detail.c_str());
    }
  }
};

/// One oracle answer: the eager estimator's bounds and the exact count.
struct Expected {
  int64_t lower = 0;
  int64_t upper = 0;
  int64_t exact = 0;
};

std::string Describe(const Result<SelectivityEstimate>& got,
                     const Expected& want, std::string_view query) {
  std::string s(query);
  if (!got.ok()) return s + " -> " + got.status().ToString();
  return s + " -> [" + std::to_string(got.value().lower) + ", " +
         std::to_string(got.value().upper) + "], want [" +
         std::to_string(want.lower) + ", " + std::to_string(want.upper) +
         "] exact " + std::to_string(want.exact);
}

bool Matches(const Result<SelectivityEstimate>& got, const Expected& want) {
  return got.ok() && got.value().lower == want.lower &&
         got.value().upper == want.upper && want.lower <= want.exact &&
         want.exact <= want.upper;
}

/// Nearest-rank percentile of `v` (sorted in place).
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }

// ---------------------------------------------------------------------------
// Host speed
//
// The host is shared: its speed drifts by tens of percent over minutes,
// and every phase of a run drifts with it. So the benchmark times a fixed
// kernel of its own between measured phases and reports each timing
// scaled by kReferenceProbeUs / probe, i.e. at the host's reference
// speed. The kernel is frozen here, never calls the library, and runs in
// a fresh process of its own (`perfbench --workload probe`), so neither
// the library's code nor its heap, caches or resident set can move it.

/// Typical median time of the probe kernel on the host the bounds were
/// set on (Release build; `perfbench --workload probe` prints samples).
constexpr double kReferenceProbeUs = 6200.0;

volatile uint64_t probe_sink = 0;

/// Hash inserts and lookups in a 1 MiB open-addressing table, a sort and
/// small-allocation churn: the kinds of work the serving path does.
uint64_t ProbeKernel() {
  constexpr size_t kSlots = size_t{1} << 17;
  std::vector<uint64_t> table(kSlots, 0);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto slot = [](uint64_t k) {
    return static_cast<size_t>((k * 0x9e3779b97f4a7c15ULL) >> 47);
  };
  for (int i = 0; i < 60000; ++i) {
    const uint64_t k = next() | 1;
    size_t s = slot(k);
    while (table[s] != 0 && table[s] != k) s = (s + 1) & (kSlots - 1);
    table[s] = k;
  }
  for (int i = 0; i < 120000; ++i) {
    const uint64_t k = next() | 1;
    size_t s = slot(k);
    while (table[s] != 0 && table[s] != k) s = (s + 1) & (kSlots - 1);
    sum += table[s] == k ? 1 : 0;
  }
  std::vector<uint64_t> keys(size_t{1} << 15);
  for (uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];
  std::vector<std::vector<int32_t>> bags(256);
  for (int32_t i = 0; i < 40000; ++i) {
    std::vector<int32_t>& b = bags[next() & 255];
    if (b.size() > 48) b = std::vector<int32_t>();
    b.push_back(i);
    sum += b.size();
  }
  return sum;
}

/// Median of three timed probe runs after an untimed one, in µs.
double ProbeUs() {
  probe_sink = probe_sink + ProbeKernel();  // first-touch page faults
  std::vector<double> us;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    probe_sink = probe_sink + ProbeKernel();
    us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
  }
  std::sort(us.begin(), us.end());
  return us[1];
}

/// Reads `fd` to its end.
std::string ReadAll(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t got = read(fd, buf, sizeof buf);
    if (got > 0) {
      out.append(buf, static_cast<size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      return out;
    }
  }
}

/// Waits for `pid`; true when it exited with code 0.
bool ExitedCleanly(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// ProbeUs() in a fresh process of this binary. A probe that cannot run
/// ends the benchmark without a result: no timing could be scaled.
double SpawnProbeUs() {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  int fds[2];
  if (len <= 0 || pipe(fds) != 0) {
    std::fprintf(stderr, "perfbench: cannot start the host probe\n");
    std::exit(2);
  }
  exe[len] = '\0';
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char workload[] = "--workload";
  char probe[] = "probe";
  char* argv[] = {exe, workload, probe, nullptr};
  pid_t pid = 0;
  const int err = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  const std::string out = err == 0 ? ReadAll(fds[0]) : std::string();
  close(fds[0]);
  const double us = std::strtod(out.c_str(), nullptr);
  if (err != 0 || !ExitedCleanly(pid) || !(us > 0)) {
    std::fprintf(stderr, "perfbench: host probe failed\n");
    std::exit(2);
  }
  return us;
}

/// Peak-RSS window: Reset() drops the kernel's high-water mark to the
/// current RSS, so PeakMb() covers only what ran after it. Without
/// /proc/self/clear_refs the process-lifetime peak is reported instead.
class PeakRss {
 public:
  void Reset() {
    malloc_trim(0);  // return the freed harness data before the mark
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return;
    reset_ = std::fputs("5", f) >= 0;
    reset_ = std::fclose(f) == 0 && reset_;
  }

  double PeakMb() const {
    if (reset_) {
      std::FILE* f = std::fopen("/proc/self/status", "r");
      if (f != nullptr) {
        char line[256];
        long long kb = -1;
        while (std::fgets(line, sizeof line, f) != nullptr) {
          if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
        }
        std::fclose(f);
        if (kb > 0) return static_cast<double>(kb) / 1024.0;
      }
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  bool reset_ = false;
};

// ---------------------------------------------------------------------------
// Inputs (generated from the seed; never timed)

/// Identity of a packed image, to prove two builds produced the same bytes.
struct ImageDigest {
  uint64_t checksum = 0;
  uint64_t bytes = 0;
  int32_t rules[2] = {0, 0};
  int32_t deleted = 0;

  bool operator==(const ImageDigest& o) const {
    return checksum == o.checksum && bytes == o.bytes &&
           rules[0] == o.rules[0] && rules[1] == o.rules[1] &&
           deleted == o.deleted;
  }
};

ImageDigest DigestOf(const xmlsel::MappedImageHeader& h) {
  ImageDigest d;
  d.checksum = h.payload_checksum;
  d.bytes = h.file_bytes;
  d.rules[0] = h.rule_count[0];
  d.rules[1] = h.rule_count[1];
  d.deleted = h.deleted;
  return d;
}

Result<ImageDigest> DigestOf(const xmlsel::Synopsis& s) {
  auto image = xmlsel::MappedSynopsis::FromBuffer(xmlsel::BuildMappedImage(s));
  if (!image.ok()) return image.status();
  return DigestOf(image.value()->header());
}

struct Inputs {
  std::string xml;
  std::vector<std::string> queries;
  std::vector<Expected> expected;  ///< serve workloads: per query
  int32_t kappa = 0;
  int32_t lossless_rules = 0;
  ImageDigest oracle_image;
  /// update-mix: the synopsis every replay of the update stream starts from.
  std::shared_ptr<const xmlsel::Synopsis> initial;
  /// Budgeted workloads: half the decode-cache residency of the image
  /// after every query of the mix ran once with no budget.
  int64_t decode_budget = 0;
};

/// Exact |Q(D)| of an XPath string over `doc`.
int64_t ExactCount(const xmlsel::ExactEvaluator& exact, const Document& doc,
                   std::string_view xpath, bool* ok) {
  xmlsel::NameTable names = doc.names();
  Result<xmlsel::Query> q = xmlsel::ParseQuery(xpath, &names);
  if (!q.ok()) {
    *ok = false;
    return 0;
  }
  Result<xmlsel::RewriteOutcome> fwd = xmlsel::RewriteReverseAxes(q.value());
  if (!fwd.ok()) {
    *ok = false;
    return 0;
  }
  *ok = true;
  return fwd.value().unsatisfiable ? 0 : exact.Count(fwd.value().query);
}

bool MakeInputs(const Config& cfg, uint64_t seed, Inputs* in, Tally* tally) {
  Document generated = xmlsel::GenerateXmark(cfg.elements, seed);
  in->xml = xmlsel::WriteXml(generated);
  // Reparse so label ids follow document order, as in every synopsis.
  Result<Document> doc = xmlsel::ParseXml(in->xml);
  if (!doc.ok()) {
    std::fprintf(stderr, "generated XML does not parse: %s\n",
                 doc.status().ToString().c_str());
    return false;
  }

  // §8.1 queries: 3-5 nodes, some order axes and '*', deduplicated.
  xmlsel::WorkloadOptions wo;
  wo.count = cfg.queries * 2;
  wo.min_nodes = 3;
  wo.max_nodes = 5;
  wo.order_axis_prob = 0.2;
  wo.wildcard_prob = 0.1;
  wo.seed = seed;
  std::unordered_set<std::string> seen;
  for (const xmlsel::Query& q : xmlsel::GenerateWorkload(doc.value(), wo)) {
    std::string text = q.ToString(doc.value().names());
    if (seen.insert(text).second) in->queries.push_back(std::move(text));
    if (static_cast<int32_t>(in->queries.size()) == cfg.queries) break;
  }

  xmlsel::SynopsisOptions lossless_options;
  Result<xmlsel::Synopsis> lossless =
      xmlsel::Synopsis::BuildStreaming(in->xml, lossless_options);
  if (!lossless.ok()) {
    std::fprintf(stderr, "lossless build failed: %s\n",
                 lossless.status().ToString().c_str());
    return false;
  }
  in->lossless_rules = lossless.value().lossless().rule_count();
  in->kappa = KappaFor(cfg, in->lossless_rules);
  xmlsel::Synopsis oracle = std::move(lossless).value();
  if (in->kappa > 0) oracle.RecomputeLossy(in->kappa);
  Result<ImageDigest> digest = DigestOf(oracle);
  if (!digest.ok()) {
    std::fprintf(stderr, "oracle image does not open: %s\n",
                 digest.status().ToString().c_str());
    return false;
  }
  in->oracle_image = digest.value();

  if (!cfg.mapped) {
    in->initial = std::make_shared<const xmlsel::Synopsis>(std::move(oracle));
    return true;
  }
  xmlsel::SelectivityEstimator eager(std::move(oracle));
  xmlsel::ExactEvaluator exact(doc.value());
  for (const std::string& q : in->queries) {
    Expected e;
    bool parsed = false;
    e.exact = ExactCount(exact, doc.value(), q, &parsed);
    Result<SelectivityEstimate> r = eager.Estimate(q);
    if (r.ok()) {
      e.lower = r.value().lower;
      e.upper = r.value().upper;
    }
    tally->Record(parsed && Matches(r, e), "oracle", Describe(r, e, q));
    in->expected.push_back(e);
  }
  if (cfg.budgeted) {
    auto image = xmlsel::MappedSynopsis::FromBuffer(
        xmlsel::BuildMappedImage(eager.synopsis()));
    if (!image.ok()) return false;
    std::shared_ptr<const xmlsel::MappedSynopsis> shared =
        std::move(image).value();
    xmlsel::ServingCatalog catalog;
    catalog.PublishMapped(kTenant, shared);
    for (const std::string& q : in->queries) {
      std::string_view xpath = q;
      (void)catalog.EstimateStrings(kTenant, std::span(&xpath, 1), 1);
    }
    in->decode_budget =
        std::max<int64_t>(1, shared->Stats().resident_bytes() / 2);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Traced calls: the serving path taken apart into its public layer calls.

/// Per-bound GrammarEvalResult counters, summed over traced evaluations.
struct BoundCounters {
  int64_t evaluations = 0;
  int64_t sigma_entries = 0;
  int64_t distinct_states = 0;
  int64_t memo_probes = 0;
  int64_t memo_hits = 0;
  int64_t intern_probes = 0;
  int64_t intern_hits = 0;
  int64_t arena_bytes = 0;
  int64_t heap_allocs = 0;

  void Add(const xmlsel::GrammarEvalResult& r) {
    ++evaluations;
    sigma_entries += r.sigma_entries;
    distinct_states += r.distinct_states;
    memo_probes += r.memo_probes;
    memo_hits += r.memo_hits;
    intern_probes += r.intern_probes;
    intern_hits += r.intern_hits;
    arena_bytes += r.arena_bytes;
    heap_allocs += r.heap_allocs;
  }
};

struct LayerCounters {
  BoundCounters lower;
  BoundCounters upper;
  int64_t compile_hits = 0;
  int64_t compile_misses = 0;
};

xmlsel::GrammarEvalResult EvaluateBound(const xmlsel::ServingView& view,
                                        const xmlsel::CompiledQuery& cq,
                                        xmlsel::BoundMode mode) {
  // Same guard as the serving core: pins decode-cache rules the evaluator
  // borrows against a concurrent budget enforcement.
  xmlsel::RcuDomain::ReadGuard guard;
  xmlsel::GrammarEvaluator eval(view.provider, &cq, view.maps, mode);
  return eval.Evaluate();
}

/// ServingCatalog::EstimateStrings for one query, one public call per
/// layer, each inside a span of `tr` (which may record nothing). Returns
/// the same [lo, hi] bit for bit.
Result<SelectivityEstimate> TracedEstimate(
    const xmlsel::ServingCatalog& catalog, std::string_view tenant,
    std::string_view xpath, Tracer* tr, LayerCounters* c) {
  tr->NewRequest();
  Tracer::Scope root(tr, "estimate");
  std::shared_ptr<const xmlsel::ServingSnapshot> snap;
  {
    Tracer::Scope s(tr, "serving.acquire");
    snap = catalog.Acquire(tenant);
  }
  if (snap == nullptr) return Status::NotFound("unknown tenant");
  xmlsel::NameTable scratch = snap->base_names();
  Result<xmlsel::Query> query = Status::Internal("unparsed");
  {
    Tracer::Scope s(tr, "query.parse");
    query = xmlsel::ParseQuery(xpath, &scratch);
  }
  if (!query.ok()) return query.status();
  xmlsel::ServingView view = snap->View();
  std::optional<xmlsel::CompiledQueryCache> local_cache;
  if (!xmlsel::QueryWithinBaseLabels(*snap, query.value())) {
    view.query_cache = &local_cache.emplace();
  }
  const int64_t hits_before = view.query_cache->hits();
  const int64_t misses_before = view.query_cache->misses();
  Result<std::shared_ptr<const xmlsel::PreparedQuery>> prepared =
      Status::Internal("unprepared");
  {
    Tracer::Scope s(tr, "automaton.prepare");
    prepared = view.query_cache->Prepare(query.value());
  }
  c->compile_hits += view.query_cache->hits() - hits_before;
  c->compile_misses += view.query_cache->misses() - misses_before;
  if (!prepared.ok()) return prepared.status();
  const xmlsel::PreparedQuery& pq = *prepared.value();
  if (pq.unsatisfiable) return SelectivityEstimate{0, 0};
  xmlsel::GrammarEvalResult lower;
  {
    Tracer::Scope s(tr, "automaton.lower");
    lower = EvaluateBound(view, pq.lower, xmlsel::BoundMode::kLower);
  }
  if (!lower.status.ok()) return lower.status;
  xmlsel::GrammarEvalResult upper;
  {
    Tracer::Scope s(tr, "automaton.upper");
    upper = EvaluateBound(view, xmlsel::UpperQueryOf(pq),
                          xmlsel::BoundMode::kUpper);
  }
  if (!upper.status.ok()) return upper.status;
  c->lower.Add(lower);
  c->upper.Add(upper);
  // The serving core's final cap: no query selects more nodes than carry
  // its match label.
  const int64_t cap = pq.match_test > 0
                          ? xmlsel::ServingLabelTotal(view, pq.match_test)
                          : view.element_total;
  SelectivityEstimate est;
  est.lower = lower.count;
  est.upper = std::max(std::min(upper.count, cap), lower.count);
  return est;
}

/// One estimate through the public serving API (the untraced path).
Result<SelectivityEstimate> ServeEstimate(const xmlsel::ServingCatalog& catalog,
                                          std::string_view tenant,
                                          std::string_view xpath) {
  Result<xmlsel::BatchOutcome> out =
      catalog.EstimateStrings(tenant, std::span(&xpath, 1), /*threads=*/1);
  if (!out.ok()) return out.status();
  return out.value().results[0];
}

Result<SelectivityEstimate> Estimate(const xmlsel::ServingCatalog& catalog,
                                     std::string_view tenant,
                                     std::string_view xpath, Tracer* tr,
                                     LayerCounters* c) {
  return tr == nullptr ? ServeEstimate(catalog, tenant, xpath)
                       : TracedEstimate(catalog, tenant, xpath, tr, c);
}

// ---------------------------------------------------------------------------
// Set-up: XML text in memory → a published tenant that can serve.

struct Served {
  std::unique_ptr<xmlsel::ServingCatalog> catalog;
  std::shared_ptr<const xmlsel::MappedSynopsis> image;  ///< mapped form
  std::shared_ptr<const xmlsel::Synopsis> synopsis;     ///< eager form
  int32_t serving_rules = 0;
};

/// One set-up. `tr` null: untraced. The build is one public call,
/// Synopsis::BuildStreaming; its stages (streaming parse + DAG, BPLEX,
/// MakeLossy) are timed by the library's own ConstructionStats, filled in
/// when `stats` is set.
Served SetUp(const Config& cfg, const Inputs& in, const std::string& path,
             Tracer* tr, xmlsel::ConstructionStats* stats, Tally* tally,
             double* seconds) {
  Served out;
  out.catalog = std::make_unique<xmlsel::ServingCatalog>();
  if (tr != nullptr) tr->NewRequest();
  const int64_t t0 = NowNs();
  Status status;
  {
    Tracer::Scope root(tr, "setup");
    Result<xmlsel::Synopsis> built = Status::Internal("unbuilt");
    {
      Tracer::Scope s(tr, "grammar.build");
      xmlsel::SynopsisOptions options;
      options.kappa = in.kappa;
      built = xmlsel::Synopsis::BuildStreaming(in.xml, options, {}, stats);
    }
    if (!built.ok()) {
      status = built.status();
    } else if (cfg.mapped) {
      {
        Tracer::Scope s(tr, "storage.pack");
        status = xmlsel::PackSynopsisToFile(built.value(), path);
      }
      Result<std::unique_ptr<xmlsel::MappedSynopsis>> image =
          Status::Internal("unopened");
      if (status.ok()) {
        Tracer::Scope s(tr, "storage.open");
        image = xmlsel::MappedSynopsis::Open(path);
      }
      if (status.ok() && !image.ok()) status = image.status();
      if (status.ok()) {
        out.image = std::move(image).value();
        Tracer::Scope s(tr, "serving.publish");
        out.catalog->PublishMapped(kTenant, out.image);
      }
    } else {
      out.synopsis = std::make_shared<const xmlsel::Synopsis>(
          std::move(built).value());
      Tracer::Scope s(tr, "serving.publish");
      out.catalog->PublishSynopsis(kTenant, out.synopsis);
    }
  }
  *seconds = Seconds(NowNs() - t0);
  // Untimed: the served state must be byte-identical to the oracle's.
  ImageDigest got;
  if (status.ok() && out.image != nullptr) {
    got = DigestOf(out.image->header());
    out.serving_rules = out.image->lossy_layer().rule_count();
  } else if (status.ok()) {
    Result<ImageDigest> d = DigestOf(*out.synopsis);
    if (d.ok()) got = d.value();
    else status = d.status();
    out.serving_rules = out.synopsis->lossy().rule_count();
  }
  const bool ok = status.ok() && got == in.oracle_image;
  tally->Record(ok, "setup",
                status.ok() ? "image differs from the oracle synopsis"
                            : status.ToString());
  return out;
}

// ---------------------------------------------------------------------------
// First answer: image on disk → Open → PublishMapped → first estimate.

/// `count` fresh opens of the image at `path`, the i-th answering query
/// (first + i) of the mix on a cold version; `expected(i)` is its oracle
/// answer. Appends one latency (ms) per open.
template <typename ExpectedFn>
void FirstAnswers(const Inputs& in, const std::string& path, size_t first,
                  int64_t count, ExpectedFn expected, Tracer* tr, Tally* tally,
                  std::vector<double>* ms) {
  xmlsel::ServingCatalog catalog;
  for (int64_t i = 0; i < count; ++i) {
    const std::string& q =
        in.queries[(first + static_cast<size_t>(i)) % in.queries.size()];
    Result<SelectivityEstimate> r = Status::Internal("not run");
    const int64_t t0 = NowNs();
    {
      if (tr != nullptr) tr->NewRequest();
      Tracer::Scope root(tr, "first_answer");
      Result<std::unique_ptr<xmlsel::MappedSynopsis>> image =
          Status::Internal("unopened");
      {
        Tracer::Scope s(tr, "storage.open");
        image = xmlsel::MappedSynopsis::Open(path);
      }
      if (!image.ok()) {
        r = image.status();
      } else {
        std::shared_ptr<const xmlsel::MappedSynopsis> shared =
            std::move(image).value();
        {
          Tracer::Scope s(tr, "serving.publish");
          catalog.PublishMapped(kFirstTenant, std::move(shared));
        }
        // The cold estimate is timed as a whole: its layers are measured
        // warm in the estimate loop.
        r = ServeEstimate(catalog, kFirstTenant, q);
      }
    }
    ms->push_back(1e3 * Seconds(NowNs() - t0));
    const Expected want = expected(static_cast<size_t>(i));
    tally->Record(Matches(r, want), "first answer", Describe(r, want, q));
  }
}

// ---------------------------------------------------------------------------
// Estimate loop (serve workloads)

struct LoopResult {
  std::vector<double> latency_us;
  std::vector<SelectivityEstimate> answers;
  int64_t wall_ns = 0;
};

/// Closed loop over the query mix, continuing at query `*cursor`:
/// `requests` estimates, or (when 0) until both `min_requests` and
/// `seconds` are reached. Appends to `out`. The decode budget, when set,
/// is enforced after every request, as a server must between publishes;
/// that work counts in the loop wall time, not in the latency.
void EstimateLoop(const Config& cfg, const Inputs& in, const Served& served,
                  size_t* cursor, int64_t requests, int64_t min_requests,
                  double seconds, Tracer* tr, LayerCounters* counters,
                  Tally* tally, LoopResult* out) {
  const size_t n = in.queries.size();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0;; ++i) {
    if (requests > 0 ? i >= requests
                     : (i >= min_requests && NowNs() >= deadline)) {
      break;
    }
    const size_t qi = (*cursor)++ % n;
    const int64_t t0 = NowNs();
    Result<SelectivityEstimate> r =
        Estimate(*served.catalog, kTenant, in.queries[qi], tr, counters);
    out->latency_us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
    if (cfg.budgeted) {
      served.catalog->EnforceDecodeBudget();
      served.catalog->ReclaimEvictedRules();
    }
    tally->Record(Matches(r, in.expected[qi]), "estimate",
                  Describe(r, in.expected[qi], in.queries[qi]));
    out->answers.push_back(r.ok() ? r.value() : SelectivityEstimate{-1, -1});
  }
  out->wall_ns += NowNs() - start;
}

// ---------------------------------------------------------------------------
// §8.2-style update stream
/// Appends copies of `from`'s children (recursively) under `at`.
void Graft(const Document& src, NodeId from, Document* dst, NodeId at) {
  for (NodeId c = src.first_child(from); c != xmlsel::kNullNode;
       c = src.next_sibling(c)) {
    Graft(src, c, dst, dst->AppendChild(at, src.names().Name(src.label(c))));
  }
}

/// Generates the update stream and keeps a mirror document in step with
/// the grammar, so bindd paths can be drawn from it. Deterministic in the
/// seed and the mirror's state.
class UpdateStream {
 public:
  UpdateStream(const std::string& xml, int64_t elements, uint64_t seed)
      : rng_(seed ^ 0x5eedc0ffeeULL) {
    Result<Document> mirror = xmlsel::ParseXml(xml);
    XMLSEL_CHECK(mirror.ok());
    mirror_ = std::move(mirror).value();
    // Depth-2 subtrees (a node and its leaf children) of a disjoint
    // XMark document are the inserted trees.
    Document ref = xmlsel::GenerateXmark(std::max<int64_t>(2000, elements / 5),
                                         seed + 7919);
    for (NodeId n : ref.SubtreeNodes(ref.document_element())) {
      if (ref.SubtreeHeight(n) != 2 || ref.SubtreeSize(n) > 8) continue;
      Document t;
      NodeId root =
          t.AppendChild(t.virtual_root(), ref.names().Name(ref.label(n)));
      Graft(ref, n, &t, root);
      pool_.push_back(std::move(t));
      if (pool_.size() == 512) break;
    }
    XMLSEL_CHECK(!pool_.empty());
  }

  /// Draws the next operation; ~20% deletes of small subtrees, the rest
  /// first-child / next-sibling inserts in equal shares.
  xmlsel::UpdateOp Next() {
    std::vector<NodeId> nodes =
        mirror_.SubtreeNodes(mirror_.document_element());
    const int64_t last = static_cast<int64_t>(nodes.size()) - 1;
    XMLSEL_CHECK(last >= 1);
    auto any_but_root = [&] {
      return nodes[static_cast<size_t>(rng_.Uniform(1, last))];
    };
    if (rng_.Chance(0.2)) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeId n = any_but_root();
        if (mirror_.SubtreeSize(n) <= 8) {
          target_ = n;
          return xmlsel::UpdateOp::Delete(xmlsel::BinddOf(mirror_, n));
        }
      }
    }
    const Document& tree = pool_[next_tree_++ % pool_.size()];
    if (rng_.Chance(0.5)) {
      target_ = nodes[static_cast<size_t>(rng_.Uniform(0, last))];
      return xmlsel::UpdateOp::FirstChild(xmlsel::BinddOf(mirror_, target_),
                                          tree);
    }
    target_ = any_but_root();
    return xmlsel::UpdateOp::NextSibling(xmlsel::BinddOf(mirror_, target_),
                                         tree);
  }

  /// Applies the last drawn operation to the mirror.
  void Commit(const xmlsel::UpdateOp& op) {
    using Kind = xmlsel::UpdateOp::Kind;
    if (op.kind == Kind::kDelete) {
      mirror_.DeleteSubtree(target_);
      return;
    }
    const Document& t = op.tree;
    const NodeId troot = t.document_element();
    const std::string& label = t.names().Name(t.label(troot));
    NodeId at = op.kind == Kind::kFirstChild
                    ? mirror_.InsertFirstChild(target_,
                                               mirror_.names().Intern(label))
                    : mirror_.InsertNextSibling(target_,
                                                mirror_.names().Intern(label));
    Graft(t, troot, &mirror_, at);
  }

  const Document& mirror() const { return mirror_; }

 private:
  xmlsel::Rng rng_;
  Document mirror_;
  std::vector<Document> pool_;
  size_t next_tree_ = 0;
  NodeId target_ = xmlsel::kNullNode;
};

/// Expands `s`'s lossless grammar, checks that it serializes to `mirror`
/// and counts each query exactly over it (-1 when it does not parse). Runs
/// in a forked child, so the expansion, the evaluator and the serialized
/// texts never count toward the measured process's peak RSS. False when
/// the expansion differs or the child fails.
bool ExpansionOracle(const xmlsel::Synopsis& s, const Document& mirror,
                     const std::vector<std::string_view>& queries,
                     std::vector<int64_t>* exact) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    Document expanded = s.lossless().Expand(s.names());
    // Slot 0: the expansion equals the mirror; then one count per query.
    std::vector<int64_t> reply = {
        xmlsel::WriteXml(expanded) == xmlsel::WriteXml(mirror) ? 1 : 0};
    xmlsel::ExactEvaluator evaluator(expanded);
    for (std::string_view q : queries) {
      bool parsed = false;
      const int64_t count = ExactCount(evaluator, expanded, q, &parsed);
      reply.push_back(parsed ? count : -1);
    }
    const char* p = reinterpret_cast<const char*>(reply.data());
    size_t left = reply.size() * sizeof(int64_t);
    while (left > 0) {
      const ssize_t put = write(fds[1], p, left);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) _exit(1);
      p += put;
      left -= static_cast<size_t>(put);
    }
    _exit(0);
  }
  close(fds[1]);
  const std::string got = pid > 0 ? ReadAll(fds[0]) : std::string();
  close(fds[0]);
  if (pid < 0 || !ExitedCleanly(pid) ||
      got.size() != (queries.size() + 1) * sizeof(int64_t)) {
    return false;
  }
  std::vector<int64_t> reply(queries.size() + 1);
  std::memcpy(reply.data(), got.data(), got.size());
  exact->assign(reply.begin() + 1, reply.end());
  return reply[0] == 1;
}

/// The master's answers for `queries` (bit-identity oracle), plus exact
/// counts from Expand() of its lossless grammar when `with_exact`. Also
/// checks that the expansion equals the mirror document.
std::vector<Expected> MasterAnswers(
    xmlsel::SelectivityEstimator* master, const Document& mirror,
    const std::vector<std::string_view>& queries, bool with_exact,
    Tally* tally) {
  std::vector<Expected> out(queries.size());
  std::vector<int64_t> exact;
  if (with_exact) {
    const bool in_step =
        ExpansionOracle(master->synopsis(), mirror, queries, &exact);
    tally->Record(in_step, "expansion",
                  "lossless grammar no longer expands to the mirror document");
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<SelectivityEstimate> r = master->Estimate(queries[i]);
    Expected& e = out[i];
    e.lower = r.ok() ? r.value().lower : -1;
    e.upper = r.ok() ? r.value().upper : -1;
    e.exact = i < exact.size() ? exact[i] : e.lower;
  }
  return out;
}

struct UpdateResult {
  std::vector<double> update_ms;
  std::vector<double> estimate_us;
  std::vector<SelectivityEstimate> answers;
  int64_t measured_ns = 0;  ///< update + estimate time, harness excluded
  int64_t estimate_ns = 0;  ///< estimate bursts only
  double tightness_sum = 0;  ///< over the first min_updates updates
  int64_t tightness_n = 0;
  uint64_t bytes_at_floor = 0;  ///< image size after min_updates updates
};

constexpr int32_t kExpansionCheckEvery = 25;

/// Runs the update stream against a master estimator. Each update is
/// applied, the new version copied (eager) or packed (mapped) and
/// published, then `estimates_per_update` measured estimates run against
/// it (one unmeasured check estimate when 0). State carries over between
/// Run calls, so a stream can be spread over several rounds.
class UpdateDriver {
 public:
  UpdateDriver(const Config& cfg, const Inputs& in, xmlsel::Synopsis initial,
               uint64_t seed, xmlsel::ServingCatalog* catalog,
               int32_t estimates_per_update)
      : cfg_(cfg),
        in_(in),
        master_(std::move(initial)),
        stream_(in.xml, cfg.elements, seed),
        catalog_(catalog),
        estimates_per_update_(estimates_per_update) {}

  /// `updates` > 0 runs exactly that many; otherwise until both
  /// `min_updates` and `seconds` are reached. Stops at the first failure.
  void Run(int64_t updates, int64_t min_updates, double seconds, Tracer* tr,
           LayerCounters* counters, Tally* tally) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t u = 0; !failed_; ++u) {
      if (updates > 0 ? u >= updates
                      : (u >= min_updates && NowNs() >= deadline)) {
        break;
      }
      Step(tr, counters, tally);
    }
  }

  /// Checks the final state against the expansion of the lossless grammar.
  void Finish(Tally* tally) {
    if (done_ > 0 && done_ % kExpansionCheckEvery != 0) {
      MasterAnswers(&master_, stream_.mirror(), {}, true, tally);
    }
  }

  xmlsel::SelectivityEstimator* master() { return &master_; }
  const Document& mirror() const { return stream_.mirror(); }
  const UpdateResult& result() const { return out_; }

 private:
  void Step(Tracer* tr, LayerCounters* counters, Tally* tally) {
    xmlsel::UpdateOp op = stream_.Next();
    const int64_t t0 = NowNs();
    Status st;
    {
      if (tr != nullptr) tr->NewRequest();
      Tracer::Scope root(tr, "update");
      if (tr == nullptr) {
        st = master_.ApplyUpdate(op);
      } else {
        {
          Tracer::Scope s(tr, "estimator.update_apply");
          st = master_.ApplyUpdateDeferred(op);
        }
        if (st.ok()) {
          Tracer::Scope s(tr, "grammar.recompute_lossy");
          master_.RecomputeLossy();
        }
      }
      if (st.ok()) {
        Tracer::Scope s(tr, "serving.publish_update");
        st = Publish();
      }
    }
    const int64_t update_ns = NowNs() - t0;
    out_.update_ms.push_back(1e-6 * static_cast<double>(update_ns));
    out_.measured_ns += update_ns;
    tally->Record(st.ok(), "update", st.ToString());
    if (!st.ok()) {
      failed_ = true;  // the mirror can no longer follow the grammar
      return;
    }
    stream_.Commit(op);
    ++done_;

    // Estimates against the new version (cold per-version caches).
    const bool measured = estimates_per_update_ > 0;
    std::vector<std::string_view> burst;
    std::vector<Result<SelectivityEstimate>> got;
    for (int32_t j = 0; j < std::max(estimates_per_update_, 1); ++j) {
      burst.push_back(in_.queries[next_query_++ % in_.queries.size()]);
      const int64_t e0 = NowNs();
      got.push_back(Estimate(*catalog_, kTenant, burst.back(),
                             measured ? tr : nullptr, counters));
      const int64_t e_ns = NowNs() - e0;
      if (measured) {
        out_.estimate_us.push_back(1e-3 * static_cast<double>(e_ns));
        out_.estimate_ns += e_ns;
        out_.measured_ns += e_ns;
      }
    }

    // Untimed oracle checks.
    const bool sample = done_ % kExpansionCheckEvery == 0;
    std::vector<Expected> want =
        MasterAnswers(&master_, stream_.mirror(), burst, sample, tally);
    for (size_t j = 0; j < burst.size(); ++j) {
      tally->Record(Matches(got[j], want[j]), "estimate after update",
                    Describe(got[j], want[j], burst[j]));
      out_.answers.push_back(got[j].ok() ? got[j].value()
                                         : SelectivityEstimate{-1, -1});
      if (done_ <= cfg_.min_updates && got[j].ok() &&
          got[j].value().upper > 0) {
        out_.tightness_sum += static_cast<double>(got[j].value().lower) /
                              static_cast<double>(got[j].value().upper);
        ++out_.tightness_n;
      }
    }
    if (done_ == cfg_.min_updates) {
      Result<ImageDigest> d = DigestOf(master_.synopsis());
      if (d.ok()) out_.bytes_at_floor = d.value().bytes;
    }
  }

  /// Copies (eager) or packs (mapped) the master and publishes it.
  Status Publish() {
    if (!cfg_.mapped) {
      auto copy = std::make_shared<const xmlsel::Synopsis>(master_.synopsis());
      catalog_->PublishSynopsis(kTenant, std::move(copy));
      return Status::OK();
    }
    auto image = xmlsel::MappedSynopsis::FromBuffer(
        xmlsel::BuildMappedImage(master_.synopsis()));
    if (!image.ok()) return image.status();
    std::shared_ptr<const xmlsel::MappedSynopsis> shared =
        std::move(image).value();
    catalog_->PublishMapped(kTenant, std::move(shared));
    return Status::OK();
  }

  const Config& cfg_;
  const Inputs& in_;
  xmlsel::SelectivityEstimator master_;
  UpdateStream stream_;
  xmlsel::ServingCatalog* catalog_;
  const int32_t estimates_per_update_;
  UpdateResult out_;
  int64_t done_ = 0;
  size_t next_query_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::string note;  ///< sample count etc., human-readable report only
};

void Emit(const std::vector<Metric>& metrics, const Tally& tally) {
  std::printf("%-40s %20s %-8s %s\n", "metric", "value", "unit", "note");
  for (const Metric& m : metrics) {
    std::printf("%-40s %20.6f %-8s %s\n", m.name.c_str(), m.value, m.unit,
                m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Samples(size_t n) { return "n=" + std::to_string(n); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Num(int64_t v) { return static_cast<double>(v); }

/// `part` ÷ `whole` for counters, 0 when `whole` is 0.
double Share(int64_t part, int64_t whole) {
  return Ratio(Num(part), Num(whole));
}

using Summary = std::map<std::string, Tracer::Aggregate>;

/// Mean duration (µs) of the spans named `name`; 0 when there are none.
double MeanUs(const Summary& s, const char* name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second.MeanUs();
}

// ---------------------------------------------------------------------------
// Runs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string dir = ".";
};

double MeanTightness(const std::vector<Expected>& expected) {
  double sum = 0;
  int64_t n = 0;
  for (const Expected& e : expected) {
    if (e.upper <= 0) continue;
    sum += static_cast<double>(e.lower) / static_cast<double>(e.upper);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// Host speed on a shared machine drifts over seconds, so the measured
// phases are spread over kRounds rounds instead of running one after
// another: each round runs a share of the estimate loop, the update
// stream, the first answers and (some rounds) one more set-up. Every
// metric then samples the whole run.
constexpr int32_t kRounds = 8;

/// Round `r`'s share of `total` (shares sum to `total`).
int64_t ShareOf(int64_t total, int32_t r) {
  return total * (r + 1) / kRounds - total * r / kRounds;
}

/// Untraced run: every end-to-end metric.
std::vector<Metric> RunEndToEnd(const Config& cfg, const Args& args,
                                Inputs* in, const std::string& image_path,
                                Tally* tally) {
  const size_t n = in->queries.size();
  in->initial.reset();  // oracle data, not part of the measured process
  PeakRss rss;
  rss.Reset();

  // Raw samples as measured; each round's share is rescaled to the
  // reference host speed once the round's closing probe is in.
  std::vector<double> probes = {SpawnProbeUs()};
  std::vector<double> setup_s;
  auto set_up = [&](const std::string& path) {
    double s = 0;
    Served served = SetUp(cfg, *in, path, nullptr, nullptr, tally, &s);
    setup_s.push_back(s);
    return served;
  };
  Served served = set_up(image_path);
  int32_t setups = 1;

  // The update stream's master is the served state (thawed from the image
  // on the mapped workloads). Mapped workloads publish each new version to
  // a tenant of their own, beside the served one; update-mix updates the
  // served tenant itself.
  Result<xmlsel::Synopsis> initial = Status::Internal("set-up failed");
  if (served.image != nullptr) initial = served.image->Thaw();
  if (served.synopsis != nullptr) initial = *served.synopsis;
  tally->Record(initial.ok(), "thaw", initial.status().ToString());
  if (!initial.ok()) return {};
  xmlsel::ServingCatalog side_catalog;
  UpdateDriver updates(cfg, *in, std::move(initial).value(), args.seed,
                       cfg.mapped ? &side_catalog : served.catalog.get(),
                       cfg.estimates_per_update);
  const UpdateResult& ur = updates.result();

  LoopResult loop;
  size_t cursor = 0;
  if (cfg.mapped) {
    // Warm-up: one pass over the mix fills the compiled-query and decode
    // caches, so the loop measures the warm serving path.
    served.catalog->SetDecodeBudget(in->decode_budget);
    LoopResult warm;
    EstimateLoop(cfg, *in, served, &cursor, static_cast<int64_t>(n), 0, 0,
                 nullptr, nullptr, tally, &warm);
  }

  std::vector<double> first_ms;
  // Rescaled samples.
  std::vector<double> setup_ref, first_ref, estimate_ref, update_ref;
  double estimate_wall_ref_s = 0, estimate_wall_raw_s = 0;
  std::vector<double> factors;
  auto rescale = [](const std::vector<double>& raw, size_t from, double f,
                    std::vector<double>* out) {
    for (size_t i = from; i < raw.size(); ++i) out->push_back(raw[i] * f);
  };

  size_t first_query = 0;
  const double round_s = args.seconds / kRounds;
  const std::string rep_path = image_path + ".rep";
  for (int32_t r = 0; r < kRounds; ++r) {
    const size_t setup0 = r == 0 ? 0 : setup_s.size();
    const size_t first0 = first_ms.size();
    const size_t est0 = cfg.mapped ? loop.latency_us.size()
                                   : ur.estimate_us.size();
    const int64_t wall0 = cfg.mapped ? loop.wall_ns : ur.estimate_ns;
    const size_t upd0 = ur.update_ms.size();

    if (setups < cfg.setup_reps && r * cfg.setup_reps / kRounds >= setups) {
      set_up(rep_path);  // measured, then dropped
      ++setups;
    }
    const int64_t opens = ShareOf(cfg.first_answer_opens, r);
    if (cfg.mapped) {
      EstimateLoop(cfg, *in, served, &cursor, 0,
                   ShareOf(cfg.min_estimates, r), round_s, nullptr, nullptr,
                   tally, &loop);
      updates.Run(ShareOf(cfg.min_updates, r), 0, 0, nullptr, nullptr, tally);
      FirstAnswers(
          *in, image_path, first_query, opens,
          [&](size_t i) { return in->expected[(first_query + i) % n]; },
          nullptr, tally, &first_ms);
    } else {
      updates.Run(0, ShareOf(cfg.min_updates, r), round_s, nullptr, nullptr,
                  tally);
      // First answers from the current version's image, packed and
      // answered by the oracle outside the timed region.
      Status st =
          xmlsel::PackSynopsisToFile(updates.master()->synopsis(), image_path);
      tally->Record(st.ok(), "pack", st.ToString());
      std::vector<std::string_view> queries;
      for (int64_t i = 0; i < opens; ++i) {
        queries.push_back(
            in->queries[(first_query + static_cast<size_t>(i)) % n]);
      }
      std::vector<Expected> want = MasterAnswers(
          updates.master(), updates.mirror(), queries, true, tally);
      FirstAnswers(*in, image_path, first_query, opens,
                   [&](size_t i) { return want[i]; }, nullptr, tally,
                   &first_ms);
    }
    first_query += static_cast<size_t>(opens);

    probes.push_back(SpawnProbeUs());
    const double f = kReferenceProbeUs / (0.5 * (probes[static_cast<size_t>(r)] +
                                                 probes[static_cast<size_t>(r) + 1]));
    factors.push_back(f);
    rescale(setup_s, setup0, f, &setup_ref);
    rescale(first_ms, first0, f, &first_ref);
    rescale(cfg.mapped ? loop.latency_us : ur.estimate_us, est0, f,
            &estimate_ref);
    rescale(ur.update_ms, upd0, f, &update_ref);
    const double wall_s =
        Seconds((cfg.mapped ? loop.wall_ns : ur.estimate_ns) - wall0);
    estimate_wall_raw_s += wall_s;
    estimate_wall_ref_s += f * wall_s;
  }
  updates.Finish(tally);
  const double peak_mb = rss.PeakMb();
  std::error_code ec;
  std::filesystem::remove(rep_path, ec);
  std::printf("host speed factor per round (reference %.0f us / probe):",
              kReferenceProbeUs);
  for (double f : factors) std::printf(" %.3f", f);
  std::printf("\n");

  const double tightness =
      cfg.mapped ? MeanTightness(in->expected)
                 : Ratio(ur.tightness_sum, static_cast<double>(ur.tightness_n));
  const double bytes = static_cast<double>(
      cfg.mapped ? served.image->file_bytes() : ur.bytes_at_floor);
  std::vector<double> raw_estimate =
      cfg.mapped ? loop.latency_us : ur.estimate_us;
  std::vector<double> raw_update = ur.update_ms;
  auto raw = [](double v) { return "raw " + std::to_string(v); };
  const size_t n_est = estimate_ref.size();
  const size_t n_upd = update_ref.size();
  return {
      {"setup_s", Median(setup_ref), "s",
       Samples(setup_ref.size()) + ", " + raw(Median(setup_s))},
      {"first_answer_ms", Median(first_ref), "ms",
       Samples(first_ref.size()) + ", " + raw(Median(first_ms))},
      {"estimate_p50_us", Percentile(&estimate_ref, 0.50), "us",
       Samples(n_est) + ", " + raw(Percentile(&raw_estimate, 0.50))},
      {"estimate_p99_us", Percentile(&estimate_ref, 0.99), "us",
       Samples(n_est) + ", " + raw(Percentile(&raw_estimate, 0.99))},
      {"estimate_qps", Num(static_cast<int64_t>(n_est)) / estimate_wall_ref_s,
       "1/s",
       "one client, threads=1, " +
           raw(Num(static_cast<int64_t>(n_est)) / estimate_wall_raw_s)},
      {"update_p50_ms", Percentile(&update_ref, 0.50), "ms",
       Samples(n_upd) + ", " + raw(Percentile(&raw_update, 0.50))},
      {"update_p95_ms", Percentile(&update_ref, 0.95), "ms",
       Samples(n_upd) + ", " + raw(Percentile(&raw_update, 0.95))},
      {"synopsis_bytes", bytes, "bytes", "packed image"},
      {"bound_tightness", tightness, "ratio", "mean lo/hi"},
      {"peak_rss_mb", peak_mb, "MB", "set-up, serving and updates"},
  };
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return Ratio(Sum(v), Num(static_cast<int64_t>(v.size())));
}

/// The three ways a traced run sends each request: through the public API,
/// through the layer calls without spans, through the layer calls with
/// spans.
enum Way : size_t { kPlain, kBare, kTraced, kWays };

/// Calls `run(way)` for every way of each of `count` requests, in an
/// order that rotates from request to request, so host drift and the
/// warmth a request leaves behind fall on the three ways alike.
template <typename Fn>
void Interleaved(int64_t count, Fn run) {
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    for (size_t k = 0; k < kWays; ++k) run(static_cast<Way>((i + k) % kWays));
  }
}

/// Traced run: per-layer metrics. Every request runs the three ways above,
/// and every answer must equal the public API's. trace.overhead_pct
/// compares the layer calls with and without spans: the cost of the spans
/// alone. estimate.self_us is the public API's latency minus the time in
/// the layer calls.
std::vector<Metric> RunTraced(const Config& cfg, const Args& args, Inputs* in,
                              const std::string& image_path,
                              const std::string& spans_path, Tally* tally) {
  const size_t n = in->queries.size();
  Tracer setup_tr, first_tr, serve_tr, update_tr;
  LayerCounters counters;
  double traced_setup_s = 0;
  xmlsel::ConstructionStats build;
  Served served = SetUp(cfg, *in, image_path, &setup_tr, &build, tally,
                        &traced_setup_s);
  const int32_t serving_rules = served.serving_rules;

  Tracer bare_tr(/*recording=*/false);
  LayerCounters bare_counters;
  LayerCounters* way_counters[kWays] = {nullptr, &bare_counters, &counters};
  // Request time (µs) of the layer calls without and with spans.
  double bare_us = 0, traced_us = 0;
  double plain_mean_us = 0;  ///< mean public-API estimate latency
  auto same = [tally](const std::vector<SelectivityEstimate>& want,
                      const std::vector<SelectivityEstimate>& got,
                      const char* what) {
    tally->Record(want.size() == got.size(), what, "answer counts differ");
    for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
      tally->Record(want[i].lower == got[i].lower &&
                        want[i].upper == got[i].upper,
                    what, "request " + std::to_string(i));
    }
  };
  // Decode-cache counters over the traced requests only.
  int64_t decode_hits = 0, decode_misses = 0, evictions = 0;
  xmlsel::MappedSynopsisStats after;
  int64_t reader_locks = 0;
  if (cfg.mapped) {
    served.catalog->SetDecodeBudget(in->decode_budget);
    size_t warm_cursor = 0;
    LoopResult warm;
    EstimateLoop(cfg, *in, served, &warm_cursor, static_cast<int64_t>(n), 0, 0,
                 nullptr, nullptr, tally, &warm);
    Tracer* tracers[kWays] = {nullptr, &bare_tr, &serve_tr};
    size_t cursors[kWays] = {0, 0, 0};
    LoopResult loops[kWays];
    Interleaved(cfg.trace_requests, [&](Way w) {
      const xmlsel::MappedSynopsisStats before = served.image->Stats();
      EstimateLoop(cfg, *in, served, &cursors[w], 1, 0, 0, tracers[w],
                   way_counters[w], tally, &loops[w]);
      if (w != kTraced) return;
      after = served.image->Stats();
      decode_hits += after.lossy.hits - before.lossy.hits;
      decode_misses += after.lossy.misses - before.lossy.misses;
      evictions += after.lossy.evictions + after.lossless.evictions -
                   before.lossy.evictions - before.lossless.evictions;
    });
    bare_us = Sum(loops[kBare].latency_us);
    traced_us = Sum(loops[kTraced].latency_us);
    plain_mean_us = Mean(loops[kPlain].latency_us);
    same(loops[kPlain].answers, loops[kBare].answers, "replay without spans");
    same(loops[kPlain].answers, loops[kTraced].answers, "traced replay");
    std::vector<double> unused;
    FirstAnswers(*in, image_path, 0, cfg.first_answer_opens,
                 [&](size_t i) { return in->expected[i % n]; }, &first_tr,
                 tally, &unused);
    reader_locks = served.catalog->Stats().reader_fast_path_locks;
    Result<xmlsel::Synopsis> thawed = served.image->Thaw();
    tally->Record(thawed.ok(), "thaw", thawed.status().ToString());
    served = Served();
    if (thawed.ok()) {
      xmlsel::ServingCatalog side_catalog;
      UpdateDriver updates(cfg, *in, std::move(thawed).value(), args.seed,
                           &side_catalog, 0);
      updates.Run(cfg.min_updates, 0, 0, &update_tr, &counters, tally);
      updates.Finish(tally);
    }
  } else {
    // The same update stream three ways from the same initial state, one
    // update of each in turn.
    xmlsel::ServingCatalog plain_catalog, bare_catalog;
    plain_catalog.PublishSynopsis(kTenant, in->initial);
    bare_catalog.PublishSynopsis(kTenant, in->initial);
    UpdateDriver plain(cfg, *in, *in->initial, args.seed, &plain_catalog,
                       cfg.estimates_per_update);
    UpdateDriver bare(cfg, *in, *in->initial, args.seed, &bare_catalog,
                      cfg.estimates_per_update);
    UpdateDriver traced(cfg, *in, *in->initial, args.seed,
                        served.catalog.get(), cfg.estimates_per_update);
    UpdateDriver* drivers[kWays] = {&plain, &bare, &traced};
    Tracer* tracers[kWays] = {nullptr, &bare_tr, &update_tr};
    Interleaved(cfg.min_updates, [&](Way w) {
      drivers[w]->Run(1, 0, 0, tracers[w], way_counters[w], tally);
    });
    for (UpdateDriver* d : drivers) d->Finish(tally);
    reader_locks = served.catalog->Stats().reader_fast_path_locks;
    bare_us = 1e-3 * Num(bare.result().measured_ns);
    traced_us = 1e-3 * Num(traced.result().measured_ns);
    plain_mean_us = Mean(plain.result().estimate_us);
    same(plain.result().answers, bare.result().answers, "replay without spans");
    same(plain.result().answers, traced.result().answers, "traced replay");
    // First answers from the final version's image.
    std::vector<std::string_view> queries;
    for (int32_t i = 0; i < cfg.first_answer_opens; ++i) {
      queries.push_back(in->queries[static_cast<size_t>(i) % n]);
    }
    std::vector<Expected> want = MasterAnswers(traced.master(), traced.mirror(),
                                               queries, true, tally);
    {
      Tracer::Scope s(&first_tr, "storage.pack");
      Status st = xmlsel::PackSynopsisToFile(traced.master()->synopsis(),
                                             image_path);
      tally->Record(st.ok(), "pack", st.ToString());
    }
    std::vector<double> unused;
    FirstAnswers(*in, image_path, 0, cfg.first_answer_opens,
                 [&](size_t i) { return want[i]; }, &first_tr, tally, &unused);
  }

  if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
    std::fprintf(f, "phase\tid\tparent\trequest\tname\tstart_ns\tend_ns\n");
    setup_tr.AppendTsv(f, "setup");
    first_tr.AppendTsv(f, "first_answer");
    serve_tr.AppendTsv(f, "serve");
    update_tr.AppendTsv(f, "update");
    std::fclose(f);
  }

  const Summary setup = setup_tr.Summarize();
  const Summary first = first_tr.Summarize();
  const Summary upd = update_tr.Summarize();
  // Estimate spans live in the serve loop, or between updates on update-mix.
  const Summary est = cfg.mapped ? serve_tr.Summarize() : upd;
  const Summary& packs = cfg.mapped ? setup : first;
  const double setup_total_s = 1e-6 * MeanUs(setup, "setup");
  const double lossy_s = build.lossy_seconds;
  const double lower_us = MeanUs(est, "automaton.lower");
  const double upper_us = MeanUs(est, "automaton.upper");
  const double update_ms = 1e-3 * MeanUs(upd, "update");
  const double recompute_ms = 1e-3 * MeanUs(upd, "grammar.recompute_lossy");
  const auto root = est.find("estimate");
  const Tracer::Aggregate requests =
      root == est.end() ? Tracer::Aggregate() : root->second;
  const LayerCounters& c = counters;
  // The public API's latency minus the time in the layer calls under it.
  const double self_us =
      plain_mean_us - 1e-3 * Ratio(Num(requests.total_ns - requests.self_ns),
                                   Num(requests.count));

  std::vector<Metric> m = {
      {"grammar.parse_dag_s", build.parse_dag_seconds, "s",
       "ConstructionStats"},
      {"grammar.bplex_s", build.bplex_seconds, "s", "ConstructionStats"},
      {"grammar.lossy_s", lossy_s, "s", "ConstructionStats (MakeLossy)"},
      {"grammar.lossless_rules", Num(in->lossless_rules), "count", ""},
      {"grammar.serving_rules", Num(serving_rules), "count", ""},
      {"storage.pack_s", 1e-6 * MeanUs(packs, "storage.pack"), "s", ""},
      {"storage.open_us", MeanUs(first, "storage.open"), "us", ""},
      {"serving.publish_us", MeanUs(first, "serving.publish"), "us", ""},
      {"serving.acquire_us", MeanUs(est, "serving.acquire"), "us", ""},
      {"serving.reader_locks", Num(reader_locks), "count", "must be 0"},
      {"query.parse_us", MeanUs(est, "query.parse"), "us", ""},
      {"automaton.prepare_us", MeanUs(est, "automaton.prepare"), "us", ""},
      {"automaton.compile_cache_hit_ratio",
       Share(c.compile_hits, c.compile_hits + c.compile_misses), "ratio", ""},
      {"automaton.lower_us", lower_us, "us", ""},
      {"automaton.upper_us", upper_us, "us", ""},
  };
  for (const auto& [bound, b] : {std::pair{"lower", &c.lower},
                                 std::pair{"upper", &c.upper}}) {
    const std::string s = bound;
    m.push_back({"automaton.sigma_entries." + s,
                 Share(b->sigma_entries, b->evaluations), "count",
                 "per evaluation"});
    m.push_back({"automaton.memo_hit_ratio." + s,
                 Share(b->memo_hits, b->memo_probes), "ratio", ""});
    m.push_back({"automaton.intern_hit_ratio." + s,
                 Share(b->intern_hits, b->intern_probes), "ratio", ""});
    m.push_back({"automaton.distinct_states." + s,
                 Share(b->distinct_states, b->evaluations), "count",
                 "per evaluation"});
  }
  m.insert(m.end(), {
      {"automaton.arena_bytes",
       Share(c.lower.arena_bytes + c.upper.arena_bytes, requests.count),
       "bytes", "per request"},
      {"automaton.heap_allocs",
       Share(c.lower.heap_allocs + c.upper.heap_allocs, requests.count),
       "count", "per request"},
      {"storage.decoded_rules", Num(after.decoded_rules()), "count",
       "after the traced requests"},
      {"storage.decode_hit_ratio",
       Share(decode_hits, decode_hits + decode_misses), "ratio", ""},
      {"storage.evictions", Num(evictions), "count",
       "during the traced requests"},
      {"storage.resident_bytes", Num(after.resident_bytes()), "bytes",
       "after the traced requests"},
      {"estimator.update_apply_ms",
       1e-3 * MeanUs(upd, "estimator.update_apply"), "ms",
       "ApplyUpdateDeferred"},
      {"grammar.recompute_lossy_ms", recompute_ms, "ms",
       "SelectivityEstimator::RecomputeLossy"},
      {"serving.publish_ms", 1e-3 * MeanUs(upd, "serving.publish_update"),
       "ms",
       cfg.mapped ? "pack + open + PublishMapped" : "copy + PublishSynopsis"},
      {"estimate.self_us", self_us, "us",
       "public API latency minus layer calls"},
      {"trace.overhead_pct", 100.0 * (Ratio(traced_us, bare_us) - 1.0), "%",
       "layer calls with vs without spans"},
      {"trace.setup_s", setup_total_s, "s", "traced set-up"},
      {"trace.update_ms", update_ms, "ms", "traced update"},
      {"split.lossy_of_setup", Ratio(lossy_s, setup_total_s), "ratio", ""},
      {"split.upper_over_lower", Ratio(upper_us, lower_us), "ratio", ""},
      {"split.recompute_of_update", Ratio(recompute_ms, update_ms), "ratio",
       ""},
  });
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<serve-star|serve-exact|update-mix> "
               "--seed <n> --seconds <s> --trace <0|1> --dir <scratch> "
               "[--short]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--short") {
      args.short_mode = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string_view(v) == "1";
    } else if (a == "--dir") {
      args.dir = v;
    } else {
      return Usage();
    }
  }
  if (args.workload == "probe") {  // one host speed probe, in µs
    std::printf("%.3f\n", ProbeUs());
    return 0;
  }
  Config cfg;
  if (!ConfigFor(args.workload, args.short_mode, &cfg)) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  const std::string stem = args.dir + "/" + cfg.name + "-" +
                           std::to_string(args.seed);
  const std::string image_path = stem + ".xsyn";

  Tally tally;
  Inputs in;
  if (!MakeInputs(cfg, args.seed, &in, &tally)) return 1;
  std::printf("workload %s seed %llu: %zu queries, kappa %d of %d lossless "
              "rules, %zu bytes of XML\n",
              cfg.name, static_cast<unsigned long long>(args.seed),
              in.queries.size(), in.kappa, in.lossless_rules, in.xml.size());

  std::vector<Metric> metrics =
      args.trace
          ? RunTraced(cfg, args, &in, image_path, stem + ".spans.tsv", &tally)
          : RunEndToEnd(cfg, args, &in, image_path, &tally);
  std::filesystem::remove(image_path, ec);
  Emit(metrics, tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
