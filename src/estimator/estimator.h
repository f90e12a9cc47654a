// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Public facade of the library: build a synopsis from a document, estimate
// the selectivity of Core XPath queries as a guaranteed [lower, upper]
// range, and apply incremental updates.
//
// Typical use:
//
//   Result<SelectivityEstimator> est =
//       SelectivityEstimator::Build(doc, {.kappa = 50});
//   Result<SelectivityEstimate> r = est.value().Estimate("//a[.//b]//c");
//   // r.value().lower <= |Q(D)| <= r.value().upper — guaranteed.

#ifndef XMLSEL_ESTIMATOR_ESTIMATOR_H_
#define XMLSEL_ESTIMATOR_ESTIMATOR_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "estimator/serving.h"
#include "estimator/synopsis.h"
#include "estimator/update.h"
#include "query/ast.h"
#include "xmlsel/status.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {

// SelectivityEstimate lives in estimator/serving.h (shared with the
// serving snapshots); it is re-exported here for the library's
// historical public surface.

/// The estimator: synopsis + query front end + automaton evaluation.
///
/// Concurrency model: the synopsis is shared read-only during
/// estimation; every bound evaluation owns its automaton state
/// (StateRegistry, σ memo). EstimateBatch runs bound evaluations on a
/// small reusable thread pool — one estimator may serve one batch at a
/// time; updates (ApplyUpdate*) require exclusive access and must never
/// overlap an estimation call.
class SelectivityEstimator {
 public:
  /// Builds the synopsis from `doc` in one pass.
  static SelectivityEstimator Build(const Document& doc,
                                    const SynopsisOptions& options);

  /// Wraps an externally built synopsis.
  explicit SelectivityEstimator(Synopsis synopsis)
      : synopsis_(std::move(synopsis)) {}

  // Copies share nothing; the thread pool is lazily re-created.
  SelectivityEstimator(const SelectivityEstimator& o)
      : synopsis_(o.synopsis_) {}
  SelectivityEstimator& operator=(const SelectivityEstimator& o) {
    if (this != &o) {
      synopsis_ = o.synopsis_;
      pool_.reset();
    }
    return *this;
  }
  SelectivityEstimator(SelectivityEstimator&&) noexcept = default;
  SelectivityEstimator& operator=(SelectivityEstimator&&) noexcept = default;

  /// Parses, rewrites, compiles, and evaluates an XPath string; returns
  /// kUnsupported/kInvalidArgument for queries outside the fragment.
  Result<SelectivityEstimate> Estimate(std::string_view xpath);

  /// Evaluates an already-built query tree (reverse axes are rewritten
  /// internally).
  Result<SelectivityEstimate> EstimateQuery(const Query& query);

  /// Batch estimation over a reusable thread pool: queries are parsed
  /// and compiled on the calling thread (the NameTable is mutable during
  /// parsing), then each query's lower and upper bound run as two
  /// independent tasks sharing the immutable synopsis + eval cache.
  /// `threads` ≤ 0 selects the hardware concurrency; 1 runs inline with
  /// no pool. Results are positionally aligned with the input and
  /// bit-identical to sequential Estimate()/EstimateQuery() calls.
  std::vector<Result<SelectivityEstimate>> EstimateBatch(
      std::span<const std::string_view> xpaths, int32_t threads = 0);
  std::vector<Result<SelectivityEstimate>> EstimateBatch(
      std::span<const Query> queries, int32_t threads = 0);

  /// Applies one §6 update (first_child / next_sibling / delete) to the
  /// lossless layer and re-derives the lossy layer.
  Status ApplyUpdate(const UpdateOp& op);

  /// Applies an update without recomputing the lossy layer (§6's queued
  /// mode); call RecomputeLossy() when the batch is done.
  Status ApplyUpdateDeferred(const UpdateOp& op);
  void RecomputeLossy() { synopsis_.RecomputeLossy(synopsis_.options().kappa); }

  const Synopsis& synopsis() const { return synopsis_; }
  Synopsis& mutable_synopsis() { return synopsis_; }

  /// Size of the estimation structure in bytes (packed encoding, §7).
  int64_t SizeBytes() const { return synopsis_.PackedSizeBytes(); }

 private:
  /// Returns the pool sized for `threads`, creating or resizing it as
  /// needed (the pool is reused across EstimateBatch calls).
  ThreadPool* pool(int32_t threads);

  Synopsis synopsis_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace xmlsel

#endif  // XMLSEL_ESTIMATOR_ESTIMATOR_H_
