// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "trace.h"

#include <chrono>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), id_(tracer == nullptr ? -1 : tracer->Begin(name)) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

int32_t Tracer::Begin(const char* name) {
  if (!recording_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, Tracer::Aggregate> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Aggregate> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Aggregate& a = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
  }
  return out;
}

void Tracer::AppendTsv(std::FILE* f, const char* phase) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\t%zu\t%d\t%lld\t%s\t%lld\t%lld\n", phase, i,
                 s.parent, static_cast<long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

}  // namespace perfbench
