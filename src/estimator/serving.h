// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// The serving-path estimation core: parse-free query estimation expressed
// over an abstract ServingView, so the eager SelectivityEstimator (full
// Synopsis in memory) and a mapped ServingSnapshot (rules decoded lazily
// out of a packed image) share one code path and produce bit-identical
// results — same evaluator control flow, same caps, same batch
// scheduling.

#ifndef XMLSEL_ESTIMATOR_SERVING_H_
#define XMLSEL_ESTIMATOR_SERVING_H_

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/eval_cache.h"
#include "query/ast.h"
#include "xml/name_table.h"
#include "xmlsel/status.h"
#include "xmlsel/thread_pool.h"

namespace xmlsel {

/// A guaranteed selectivity range (§5.4): lower ≤ |Q(D)| ≤ upper.
struct SelectivityEstimate {
  int64_t lower = 0;
  int64_t upper = 0;

  /// The range collapses to the exact answer.
  bool exact() const { return lower == upper; }
  /// Midpoint, the natural point estimate.
  double midpoint() const {
    return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
  }
  /// Range width — the implicit confidence measure: smaller is better.
  int64_t width() const { return upper - lower; }
};

/// Borrowed view of everything estimation needs from a synopsis, however
/// it is materialized. All referenced data must stay valid and read-only
/// (the query cache is internally synchronized) for the duration of the
/// call.
struct ServingView {
  const RuleProvider* provider = nullptr;  ///< lossy-layer rules
  const LabelMaps* maps = nullptr;         ///< may be null (no pruning)
  CompiledQueryCache* query_cache = nullptr;
  std::span<const int64_t> label_totals;   ///< indexed by LabelId
  int64_t element_total = 0;
};

/// Population of `label`; labels outside the stored totals (interned after
/// the synopsis was built) fall back to the element total, mirroring
/// Synopsis::LabelTotal so both serving forms cap identically.
int64_t ServingLabelTotal(const ServingView& view, LabelId label);

/// Rewrites, compiles (through the view's cache), and evaluates both
/// bounds of one query. Provider failures (corrupt lazily decoded rules)
/// surface as the provider's Status.
Result<SelectivityEstimate> EstimateQueryOnView(const ServingView& view,
                                                const Query& query);

/// Batch estimation: preparation on the calling thread, then each query's
/// lower and upper bound as independent tasks on `pool` (`threads` == 1 or
/// a null pool runs inline). Results are positionally aligned with the
/// input and bit-identical to sequential EstimateQueryOnView calls.
std::vector<Result<SelectivityEstimate>> EstimateBatchOnView(
    const ServingView& view, std::span<const Query> queries, int32_t threads,
    ThreadPool* pool);

/// String front shared by every serving form: parses each XPath against
/// `names` on the calling thread (parsing interns labels), then hands the
/// parsed batch to `estimate`. A slot whose XPath fails to parse carries
/// its parse status; `estimate` sees a trivial placeholder query there,
/// so positions stay aligned.
std::vector<Result<SelectivityEstimate>> EstimateStringBatch(
    std::span<const std::string_view> xpaths, NameTable* names,
    const std::function<std::vector<Result<SelectivityEstimate>>(
        std::span<const Query>)>& estimate);

}  // namespace xmlsel

#endif  // XMLSEL_ESTIMATOR_SERVING_H_
