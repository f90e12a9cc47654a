// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// In-memory span recorder for the benchmark's traced run. Spans are
// recorded around calls into the library's public API, from the
// benchmark's own code: each span has a name, start and end (steady
// clock, ns), the span that was open when it began (its parent), and the
// id of the request it belongs to. Nothing is written until the run ends.
//
// A span's self time is its duration minus the durations of its direct
// children. Children of one span never overlap (the benchmark runs one
// client thread), so the subtraction is exact.
//
// A tracer made with `recording = false` records nothing: the same code
// runs with and without spans, so their cost can be measured.

#ifndef XMLSEL_PERFBENCH_TRACE_H_
#define XMLSEL_PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

class Tracer {
 public:
  struct Span {
    const char* name;  ///< a string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = 0;
  };

  /// Totals of every span with one name.
  struct Aggregate {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;

    double MeanUs() const {
      return count == 0 ? 0.0 : 1e-3 * static_cast<double>(total_ns) /
                                     static_cast<double>(count);
    }
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  explicit Tracer(bool recording = true) : recording_(recording) {
    if (recording_) spans_.reserve(1 << 16);
  }

  /// Starts a new request: spans opened from here on share a fresh id.
  void NewRequest() { ++request_; }

  /// Self time and duration per span name.
  std::map<std::string, Aggregate> Summarize() const;

  /// Appends every span to `f` as one tab-separated line:
  /// phase, id, parent, request, name, start_ns, end_ns.
  void AppendTsv(std::FILE* f, const char* phase) const;

 private:
  int32_t Begin(const char* name);
  void End(int32_t id);

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t request_ = 0;
  bool recording_ = true;
};

}  // namespace perfbench

#endif  // XMLSEL_PERFBENCH_TRACE_H_
