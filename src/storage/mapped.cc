// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "storage/mapped.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/bitio.h"
#include "storage/packed.h"
#include "xmlsel/rcu.h"

namespace xmlsel {

namespace {

constexpr char kMagic[8] = {'X', 'S', 'E', 'L', 'S', 'Y', 'N', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kSectionAlign = 4096;

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

std::string SectionName(int s) {
  static const char* kNames[kMappedSectionCount] = {
      "names",  "label_totals", "label_maps", "stars[0]", "dir[0]",
      "payload[0]", "stars[1]", "dir[1]", "payload[1]"};
  return s >= 0 && s < kMappedSectionCount ? kNames[s] : "?";
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(u >> (8 * i)));
  }
}

std::vector<uint8_t> BuildNamesSection(const NameTable& names) {
  std::vector<uint8_t> out;
  for (LabelId i = 0; i < names.size(); ++i) {
    const std::string& n = names.Name(i);
    PutU32(&out, static_cast<uint32_t>(n.size()));
    out.insert(out.end(), n.begin(), n.end());
  }
  return out;
}

std::vector<uint8_t> BuildLabelMapsSection(const LabelMaps& maps) {
  const size_t n = static_cast<size_t>(maps.label_count);
  const size_t row_bytes = (n + 7) / 8;
  std::vector<uint8_t> out(n * row_bytes, 0);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (maps.child[a][b]) {
        out[a * row_bytes + b / 8] |=
            static_cast<uint8_t>(1u << (b % 8));
      }
    }
  }
  return out;
}

std::vector<uint8_t> BuildStarsSection(const SltGrammar& g) {
  std::vector<uint8_t> out;
  for (const StarStats& s : g.star_stats()) {
    MappedStarEntry e{s.height, 0, s.size};
    // xmlsel-lint: allow(cast): trivially-copyable struct viewed as bytes
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&e);
    out.insert(out.end(), p, p + sizeof(e));
  }
  return out;
}

/// Encodes one layer's rule directory + payload.
void BuildLayerSections(const SltGrammar& g, int32_t label_count,
                        std::vector<uint8_t>* dir,
                        std::vector<uint8_t>* payload) {
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    BitWriter w;
    EncodePackedRule(g, i, label_count, &w);
    MappedRuleEntry e;
    e.offset = payload->size();
    e.bit_len = static_cast<uint32_t>(w.bit_count());
    e.rank = g.rule(i).rank;
    // xmlsel-lint: allow(cast): trivially-copyable struct viewed as bytes
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&e);
    dir->insert(dir->end(), p, p + sizeof(e));
    std::vector<uint8_t> bytes = w.Finish();
    payload->insert(payload->end(), bytes.begin(), bytes.end());
  }
}

Status SectionError(int s, const std::string& what) {
  return Status::Corruption("mapped: section " + SectionName(s) + " " + what);
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<uint8_t> BuildMappedImage(const Synopsis& synopsis) {
  const int32_t label_count = synopsis.names().size();
  std::vector<uint8_t> sections[kMappedSectionCount];
  sections[kSecNames] = BuildNamesSection(synopsis.names());
  for (int64_t t : synopsis.label_totals()) {
    PutI64(&sections[kSecLabelTotals], t);
  }
  sections[kSecLabelMaps] = BuildLabelMapsSection(synopsis.label_maps());
  sections[kSecStars0] = BuildStarsSection(synopsis.lossless());
  BuildLayerSections(synopsis.lossless(), label_count, &sections[kSecDir0],
                     &sections[kSecPayload0]);
  sections[kSecStars1] = BuildStarsSection(synopsis.lossy());
  BuildLayerSections(synopsis.lossy(), label_count, &sections[kSecDir1],
                     &sections[kSecPayload1]);

  MappedImageHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.header_bytes = sizeof(MappedImageHeader);
  h.kappa = synopsis.options().kappa;
  h.deleted = synopsis.deleted_productions();
  h.label_count = label_count;
  h.maps_label_count = synopsis.label_maps().label_count;
  h.rule_count[0] = synopsis.lossless().rule_count();
  h.rule_count[1] = synopsis.lossy().rule_count();
  h.star_count[0] =
      static_cast<int32_t>(synopsis.lossless().star_stats().size());
  h.star_count[1] = static_cast<int32_t>(synopsis.lossy().star_stats().size());
  h.element_total = synopsis.ElementTotal();

  uint64_t cursor = sizeof(MappedImageHeader);
  for (int s = 0; s < kMappedSectionCount; ++s) {
    cursor = AlignUp(cursor, kSectionAlign);
    h.section_offset[s] = cursor;
    h.section_bytes[s] = sections[s].size();
    cursor += sections[s].size();
  }
  h.file_bytes = cursor;

  std::vector<uint8_t> image(cursor, 0);
  for (int s = 0; s < kMappedSectionCount; ++s) {
    if (!sections[s].empty()) {
      std::memcpy(image.data() + h.section_offset[s], sections[s].data(),
                  sections[s].size());
    }
  }
  h.payload_checksum = Fnv1a64(image.data() + h.header_bytes,
                               image.size() - h.header_bytes);
  std::memcpy(image.data(), &h, sizeof(h));
  return image;
}

Status PackSynopsisToFile(const Synopsis& synopsis, const std::string& path) {
  std::vector<uint8_t> image = BuildMappedImage(synopsis);
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("mapped: cannot open " + tmp +
                                   " for writing: " + std::strerror(errno));
  }
  size_t written = std::fwrite(image.data(), 1, image.size(), f);
  int close_err = std::fclose(f);
  if (written != image.size() || close_err != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("mapped: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("mapped: rename to " + path +
                            " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Layer

MappedSynopsis::Layer::~Layer() {
  for (auto& slot : slots_) {
    delete slot.load(std::memory_order_acquire);
  }
  MutexLock lock(evict_mu_);
  for (const RetiredRule& r : retired_) {
    delete r.rule;
  }
}

void MappedSynopsis::Layer::SetError(const Status& st) const {
  MutexLock lock(error_mu_);
  if (error_.ok()) error_ = st;
}

Status MappedSynopsis::Layer::error() const {
  MutexLock lock(error_mu_);
  return error_;
}

Status MappedSynopsis::Layer::DecodeRuleFlat(int32_t rule,
                                             FlatRuleData* out) const {
  if (rule < 0 || rule >= rule_count()) {
    return Status::Corruption("mapped: rule index " + std::to_string(rule) +
                              " out of range (layer has " +
                              std::to_string(rule_count()) + " rules)");
  }
  const size_t r = static_cast<size_t>(rule);
  PackedRuleCursor cursor(payload(), label_count_,
                          static_cast<int64_t>(stars_.size()), ranks_, maps_);
  return cursor.DecodeFlat(rule, offsets_[r], bit_lens_[r], out);
}

RuleEvalData MappedSynopsis::Layer::Rule(int32_t rule) const {
  if (rule < 0 || rule >= rule_count()) {
    SetError(Status::Corruption("mapped: rule index " + std::to_string(rule) +
                                " out of range"));
    return {};
  }
  const size_t r = static_cast<size_t>(rule);
  std::atomic<const MappedDecodedRule*>& slot = slots_[r];
  const MappedDecodedRule* d = slot.load(std::memory_order_acquire);
  if (d != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ref_bits_[r].store(1, std::memory_order_relaxed);
    return d->data.View();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto fresh = std::make_unique<MappedDecodedRule>();
  Status st = DecodeRuleFlat(rule, &fresh->data);
  if (!st.ok()) {
    SetError(st);
    return {};
  }
  fresh->resident_bytes =
      static_cast<int64_t>(sizeof(MappedDecodedRule)) +
      fresh->data.HeapBytes();
  const MappedDecodedRule* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    d = fresh.release();
    decoded_rules_.fetch_add(1, std::memory_order_relaxed);
    resident_bytes_.fetch_add(d->resident_bytes, std::memory_order_relaxed);
    ref_bits_[r].store(1, std::memory_order_relaxed);
  } else {
    d = expected;  // another thread installed first; drop our copy
  }
  return d->data.View();
}

MappedCacheStats MappedSynopsis::Layer::cache_stats() const {
  MappedCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.decoded_rules = decoded_rules_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.total_rules = rule_count();
  return s;
}

void MappedSynopsis::Layer::EnsureSweepOrderLocked() const {
  const int32_t n = rule_count();
  if (!sweep_order_.empty() || n == 0) return;
  std::vector<char> reach(static_cast<size_t>(n), 0);
  std::vector<int32_t> work;
  FlatRuleData rule;
  // No label maps: the walk needs only the call sites, not star roots.
  PackedRuleCursor cursor(payload(), label_count_,
                          static_cast<int64_t>(stars_.size()), ranks_,
                          nullptr);
  const int32_t start = n - 1;
  reach[static_cast<size_t>(start)] = 1;
  work.push_back(start);
  bool scanned_ok = true;
  while (!work.empty()) {
    const int32_t r = work.back();
    work.pop_back();
    Status st = cursor.DecodeFlat(r, offsets_[static_cast<size_t>(r)],
                                  bit_lens_[static_cast<size_t>(r)], &rule);
    if (!st.ok()) {
      SetError(st);
      scanned_ok = false;
      break;
    }
    for (const RuleNodeView& node : rule.nodes) {
      if (node.kind != GrammarNode::Kind::kNonterminal) continue;
      if (!reach[static_cast<size_t>(node.sym)]) {
        reach[static_cast<size_t>(node.sym)] = 1;
        work.push_back(node.sym);
      }
    }
  }
  sweep_order_.reserve(static_cast<size_t>(n));
  if (!scanned_ok) {
    // Corrupt call graph: fall back to plain ascending order and treat
    // everything as reachable (never under-evict because of bad bytes).
    for (int32_t i = 0; i < n; ++i) sweep_order_.push_back(i);
    reachable_count_ = n;
    return;
  }
  int32_t reachable = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (!reach[static_cast<size_t>(i)]) sweep_order_.push_back(i);
  }
  for (int32_t i = 0; i < n; ++i) {
    if (reach[static_cast<size_t>(i)]) {
      sweep_order_.push_back(i);
      ++reachable;
    }
  }
  reachable_count_ = reachable;
}

int64_t MappedSynopsis::Layer::EvictToBudget(int64_t target_bytes) const {
  MutexLock lock(evict_mu_);
  const int32_t n = rule_count();
  if (n == 0) return 0;
  EnsureSweepOrderLocked();
  int64_t evicted = 0;
  // Two full revolutions bound the sweep: the first clears every ref
  // bit, the second may then evict every slot — so with quiesced
  // readers the loop provably reaches any feasible target.
  const size_t limit = 2 * static_cast<size_t>(n);
  size_t scanned = 0;
  while (resident_bytes_.load(std::memory_order_relaxed) > target_bytes &&
         scanned < limit) {
    const size_t r = static_cast<size_t>(
        sweep_order_[clock_hand_ % sweep_order_.size()]);
    ++clock_hand_;
    ++scanned;
    std::atomic<const MappedDecodedRule*>& slot = slots_[r];
    if (slot.load(std::memory_order_acquire) == nullptr) continue;
    if (ref_bits_[r].exchange(0, std::memory_order_acq_rel) != 0) {
      continue;  // second chance: referenced since the last sweep
    }
    const MappedDecodedRule* victim =
        slot.exchange(nullptr, std::memory_order_acq_rel);
    if (victim == nullptr) continue;
    decoded_rules_.fetch_sub(1, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(victim->resident_bytes,
                              std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ++evicted;
    // Readers inside an RCU guard may still hold views into the victim:
    // stamp it and free it only once the grace period has passed.
    retired_.push_back({victim, RcuDomain::Global().Retire()});
  }
  ReclaimLocked();
  return evicted;
}

int64_t MappedSynopsis::Layer::ReclaimLocked() const {
  const uint64_t safe = RcuDomain::Global().SafeEpoch();
  int64_t freed = 0;
  size_t keep = 0;
  for (size_t i = 0; i < retired_.size(); ++i) {
    if (retired_[i].epoch < safe) {
      delete retired_[i].rule;
      ++freed;
    } else {
      retired_[keep++] = retired_[i];
    }
  }
  retired_.resize(keep);
  return freed;
}

int64_t MappedSynopsis::Layer::ReclaimEvicted() const {
  MutexLock lock(evict_mu_);
  return ReclaimLocked();
}

int32_t MappedSynopsis::Layer::ReachableRuleCount() const {
  MutexLock lock(evict_mu_);
  EnsureSweepOrderLocked();
  return reachable_count_;
}

Status MappedSynopsis::Layer::AuditDecodeCache() const {
  MutexLock lock(evict_mu_);
  int64_t count = 0;
  int64_t bytes = 0;
  for (size_t r = 0; r < slots_.size(); ++r) {
    const MappedDecodedRule* d = slots_[r].load(std::memory_order_acquire);
    if (d == nullptr) continue;
    const int64_t exact = static_cast<int64_t>(sizeof(MappedDecodedRule)) +
                          d->data.HeapBytes();
    if (d->resident_bytes != exact) {
      return Status::Corruption(
          "mapped: rule " + std::to_string(r) + " charged " +
          std::to_string(d->resident_bytes) +
          " resident bytes, exact footprint is " + std::to_string(exact));
    }
    ++count;
    bytes += d->resident_bytes;
  }
  const int64_t counted = decoded_rules_.load(std::memory_order_relaxed);
  if (count != counted) {
    return Status::Corruption(
        "mapped: decode cache holds " + std::to_string(count) +
        " rules, counter says " + std::to_string(counted));
  }
  const int64_t resident = resident_bytes_.load(std::memory_order_relaxed);
  if (bytes != resident) {
    return Status::Corruption(
        "mapped: decode cache holds " + std::to_string(bytes) +
        " resident bytes, counter says " + std::to_string(resident));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MappedSynopsis

MappedSynopsis::~MappedSynopsis() {
  if (mmap_base_ != nullptr) {
    ::munmap(mmap_base_, mmap_bytes_);
  }
}

Result<std::unique_ptr<MappedSynopsis>> MappedSynopsis::Open(
    const std::string& path, const MappedOpenOptions& options) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::InvalidArgument("mapped: cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::InvalidArgument("mapped: cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  std::unique_ptr<MappedSynopsis> out(new MappedSynopsis());
  void* base = size > 0
                   ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                   : MAP_FAILED;
  if (base != MAP_FAILED) {
    out->mmap_base_ = base;
    out->mmap_bytes_ = size;
    out->data_ = static_cast<const uint8_t*>(base);
    out->size_ = size;
    ::close(fd);
  } else {
    // mmap unavailable (exotic filesystem, size 0): fall back to a read.
    out->owned_.resize(size);
    size_t got = 0;
    while (got < size) {
      ssize_t n = ::read(fd, out->owned_.data() + got, size - got);
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    ::close(fd);
    if (got != size) {
      return Status::InvalidArgument("mapped: short read from " + path);
    }
    out->data_ = out->owned_.data();
    out->size_ = size;
  }
  XMLSEL_RETURN_IF_ERROR(out->Init(out->data_, out->size_, options));
  return out;
}

Result<std::unique_ptr<MappedSynopsis>> MappedSynopsis::FromBuffer(
    std::vector<uint8_t> bytes, const MappedOpenOptions& options) {
  std::unique_ptr<MappedSynopsis> out(new MappedSynopsis());
  out->owned_ = std::move(bytes);
  out->data_ = out->owned_.data();
  out->size_ = out->owned_.size();
  XMLSEL_RETURN_IF_ERROR(out->Init(out->data_, out->size_, options));
  return out;
}

Status MappedSynopsis::Init(const uint8_t* data, size_t size,
                            const MappedOpenOptions& options) {
  if (size < sizeof(MappedImageHeader)) {
    return Status::Corruption("mapped: image truncated (" +
                              std::to_string(size) + " bytes, header needs " +
                              std::to_string(sizeof(MappedImageHeader)) + ")");
  }
  std::memcpy(&header_, data, sizeof(header_));
  if (std::memcmp(header_.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("mapped: bad magic (not a synopsis image)");
  }
  if (header_.version != kVersion) {
    return Status::Corruption("mapped: unsupported format version " +
                              std::to_string(header_.version) +
                              " (this build reads version " +
                              std::to_string(kVersion) + ")");
  }
  if (header_.header_bytes != sizeof(MappedImageHeader)) {
    return Status::Corruption("mapped: header declares " +
                              std::to_string(header_.header_bytes) +
                              " header bytes, expected " +
                              std::to_string(sizeof(MappedImageHeader)));
  }
  if (header_.file_bytes != size) {
    return Status::Corruption(
        "mapped: header declares " + std::to_string(header_.file_bytes) +
        " file bytes, image has " + std::to_string(size));
  }
  if (header_.label_count < 1 || header_.maps_label_count < 0 ||
      header_.maps_label_count > header_.label_count ||
      header_.rule_count[0] < 1 || header_.rule_count[1] < 1 ||
      header_.star_count[0] < 0 || header_.star_count[1] < 0 ||
      header_.element_total < 0 || header_.kappa < 0 ||
      header_.deleted < 0) {
    return Status::Corruption("mapped: header counts out of range");
  }

  // Section bounds: inside the file, after the header, non-overlapping by
  // construction is NOT assumed — each is bounds-checked independently
  // (overlap is harmless for a read-only consumer).
  for (int s = 0; s < kMappedSectionCount; ++s) {
    uint64_t off = header_.section_offset[s];
    uint64_t len = header_.section_bytes[s];
    if (off < header_.header_bytes || off > size || len > size - off) {
      return SectionError(s, "escapes the file bounds");
    }
  }
  auto section = [&](int s) {
    return std::span<const uint8_t>(
        data + header_.section_offset[s],
        static_cast<size_t>(header_.section_bytes[s]));
  };

  if (options.verify_checksum) {
    XMLSEL_RETURN_IF_ERROR(VerifyChecksumOver(data, size));
  }

  // Names: label_count length-prefixed strings, id 0 must be the reserved
  // root label (NameTable's constructor pre-interns it).
  {
    std::span<const uint8_t> sec = section(kSecNames);
    size_t pos = 0;
    for (int32_t i = 0; i < header_.label_count; ++i) {
      if (sec.size() - pos < 4) {
        return SectionError(kSecNames, "truncated at label " +
                                           std::to_string(i));
      }
      uint32_t len = 0;
      std::memcpy(&len, sec.data() + pos, 4);
      pos += 4;
      if (len > sec.size() - pos) {
        return SectionError(kSecNames, "label " + std::to_string(i) +
                                           " length escapes the section");
      }
      // xmlsel-lint: allow(cast): uint8_t->char view, bounds checked above
      std::string_view name(reinterpret_cast<const char*>(sec.data() + pos),
                            len);
      pos += len;
      if (i == 0) {
        if (name != names_.Name(0)) {
          return SectionError(kSecNames,
                              "label 0 is not the reserved root label");
        }
        continue;
      }
      if (names_.Intern(name) != i) {
        return SectionError(kSecNames, "duplicate or misordered label \"" +
                                           std::string(name) + "\"");
      }
    }
    if (pos != sec.size()) {
      return SectionError(kSecNames, "carries trailing bytes");
    }
  }

  // Label totals.
  {
    std::span<const uint8_t> sec = section(kSecLabelTotals);
    if (sec.size() != static_cast<size_t>(header_.label_count) * 8) {
      return SectionError(kSecLabelTotals, "has wrong size");
    }
    label_totals_.resize(static_cast<size_t>(header_.label_count));
    std::memcpy(label_totals_.data(), sec.data(), sec.size());
    for (int64_t t : label_totals_) {
      if (t < 0) {
        return SectionError(kSecLabelTotals, "contains a negative total");
      }
    }
  }

  // Label maps: child bit-matrix; parent is its transpose.
  {
    std::span<const uint8_t> sec = section(kSecLabelMaps);
    const size_t n = static_cast<size_t>(header_.maps_label_count);
    const size_t row_bytes = (n + 7) / 8;
    if (sec.size() != n * row_bytes) {
      return SectionError(kSecLabelMaps, "has wrong size");
    }
    maps_.label_count = header_.maps_label_count;
    maps_.child.assign(n, std::vector<bool>(n, false));
    maps_.parent.assign(n, std::vector<bool>(n, false));
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if ((sec[a * row_bytes + b / 8] >> (b % 8)) & 1u) {
          maps_.child[a][b] = true;
          maps_.parent[b][a] = true;
        }
      }
    }
  }

  // Per-layer star tables and rule directories.
  for (int layer = 0; layer < 2; ++layer) {
    Layer& L = layers_[layer];
    const int stars_sec = layer == 0 ? kSecStars0 : kSecStars1;
    const int dir_sec = layer == 0 ? kSecDir0 : kSecDir1;
    const int payload_sec = layer == 0 ? kSecPayload0 : kSecPayload1;
    const int32_t rules = header_.rule_count[layer];
    const int32_t stars = header_.star_count[layer];

    std::span<const uint8_t> star_bytes = section(stars_sec);
    if (star_bytes.size() !=
        static_cast<size_t>(stars) * sizeof(MappedStarEntry)) {
      return SectionError(stars_sec, "has wrong size");
    }
    L.stars_.reserve(static_cast<size_t>(stars));
    for (int32_t i = 0; i < stars; ++i) {
      MappedStarEntry e;
      std::memcpy(&e, star_bytes.data() + static_cast<size_t>(i) * sizeof(e),
                  sizeof(e));
      if (e.height < 0 || e.size < 0) {
        return SectionError(stars_sec, "entry " + std::to_string(i) +
                                           " carries negative stats");
      }
      L.stars_.push_back(StarStats{e.height, e.size});
    }

    std::span<const uint8_t> dir_bytes = section(dir_sec);
    if (dir_bytes.size() !=
        static_cast<size_t>(rules) * sizeof(MappedRuleEntry)) {
      return SectionError(dir_sec, "has wrong size");
    }
    std::span<const uint8_t> payload = section(payload_sec);
    L.payload_ = payload.data();
    L.payload_bytes_ = payload.size();
    L.label_count_ = header_.label_count;
    L.maps_ = &maps_;
    L.offsets_.reserve(static_cast<size_t>(rules));
    L.bit_lens_.reserve(static_cast<size_t>(rules));
    L.ranks_.reserve(static_cast<size_t>(rules));
    for (int32_t i = 0; i < rules; ++i) {
      MappedRuleEntry e;
      std::memcpy(&e, dir_bytes.data() + static_cast<size_t>(i) * sizeof(e),
                  sizeof(e));
      const uint64_t nbytes = (static_cast<uint64_t>(e.bit_len) + 7) / 8;
      if (e.bit_len == 0 || e.offset > payload.size() ||
          nbytes > payload.size() - e.offset) {
        return SectionError(dir_sec,
                            "entry " + std::to_string(i) +
                                " references bytes outside its payload");
      }
      if (e.rank < 0 || e.rank > static_cast<int32_t>(e.bit_len)) {
        // The unary rank prefix alone needs rank+1 bits.
        return SectionError(dir_sec, "entry " + std::to_string(i) +
                                         " carries an impossible rank");
      }
      L.offsets_.push_back(e.offset);
      L.bit_lens_.push_back(e.bit_len);
      L.ranks_.push_back(e.rank);
    }
    if (rules > 0 && L.ranks_[static_cast<size_t>(rules) - 1] != 0) {
      return SectionError(dir_sec, "start rule has non-zero rank");
    }
    // Atomics are neither movable nor copyable; vector(n) constructs the
    // slots in place and move-assignment only steals the buffer.
    std::vector<std::atomic<const MappedDecodedRule*>> slots(
        static_cast<size_t>(rules));
    L.slots_ = std::move(slots);
    std::vector<std::atomic<uint8_t>> ref_bits(static_cast<size_t>(rules));
    L.ref_bits_ = std::move(ref_bits);
  }
  return Status::OK();
}

Status MappedSynopsis::VerifyChecksumOver(const uint8_t* data, size_t size) const {
  uint64_t got = Fnv1a64(data + header_.header_bytes,
                         size - header_.header_bytes);
  if (got != header_.payload_checksum) {
    return Status::Corruption(
        "mapped: payload checksum mismatch (stored " +
        std::to_string(header_.payload_checksum) + ", computed " +
        std::to_string(got) + ")");
  }
  return Status::OK();
}

Status MappedSynopsis::VerifyChecksum() const {
  return VerifyChecksumOver(data_, size_);
}

Result<SltGrammar> MappedSynopsis::AssembleGrammar(int layer) const {
  if (layer < 0 || layer > 1) {
    return Status::InvalidArgument("mapped: layer must be 0 or 1");
  }
  const Layer& L = layers_[layer];
  SltGrammar g;
  for (size_t i = 0; i < L.stars_.size(); ++i) {
    if (g.InternStarStats(L.stars_[i]) != static_cast<int32_t>(i)) {
      return Status::Corruption(
          "mapped: star table of layer " + std::to_string(layer) +
          " contains duplicates (indices would shift on re-intern)");
    }
  }
  FlatRuleData flat;
  for (int32_t i = 0; i < L.rule_count(); ++i) {
    XMLSEL_RETURN_IF_ERROR(L.DecodeRuleFlat(i, &flat));
    g.AddRule(RuleFromFlat(flat));
  }
  return g;
}

int64_t MappedSynopsis::EnforceDecodeBudget(int64_t budget_bytes) const {
  if (budget_bytes < 0) budget_bytes = 0;
  const int64_t resident =
      layers_[0].cache_stats().resident_bytes +
      layers_[1].cache_stats().resident_bytes;
  if (resident <= budget_bytes) return 0;
  // The lossless layer is cold by design (only thaw/verify touch it);
  // drain it first so the serving layer keeps as much budget as possible.
  int64_t evicted = layers_[0].EvictToBudget(0);
  const int64_t lossless_left = layers_[0].cache_stats().resident_bytes;
  int64_t lossy_target = budget_bytes - lossless_left;
  if (lossy_target < 0) lossy_target = 0;
  evicted += layers_[1].EvictToBudget(lossy_target);
  return evicted;
}

int64_t MappedSynopsis::ReclaimEvictedRules() const {
  return layers_[0].ReclaimEvicted() + layers_[1].ReclaimEvicted();
}

Result<Synopsis> MappedSynopsis::Thaw() const {
  Result<SltGrammar> lossless = AssembleGrammar(0);
  if (!lossless.ok()) return lossless.status();
  Result<SltGrammar> lossy = AssembleGrammar(1);
  if (!lossy.ok()) return lossy.status();
  SynopsisOptions options;
  options.kappa = header_.kappa;
  return Synopsis::FromParts(std::move(lossless).value(),
                             std::move(lossy).value(), maps_, names_,
                             label_totals_, header_.element_total, options,
                             header_.deleted);
}

}  // namespace xmlsel
