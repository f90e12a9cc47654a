// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "estimator/estimator.h"

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "query/parser.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace xmlsel {

namespace {

/// The serving view over an eager synopsis: rules come from the shared
/// SynopsisEvalCache (forcing its lazy build), everything else straight
/// from the Synopsis members. The estimate pipeline itself lives in
/// estimator/serving.cc, shared with the mapped serving snapshots.
ServingView ViewOf(const Synopsis& synopsis) {
  ServingView view;
  view.provider = &synopsis.eval_cache();
  view.maps = &synopsis.label_maps();
  view.query_cache = &synopsis.query_cache();
  view.label_totals = synopsis.label_totals();
  view.element_total = synopsis.ElementTotal();
  return view;
}

}  // namespace

SelectivityEstimator SelectivityEstimator::Build(
    const Document& doc, const SynopsisOptions& options) {
  return SelectivityEstimator(Synopsis::Build(doc, options));
}

Result<SelectivityEstimate> SelectivityEstimator::Estimate(
    std::string_view xpath) {
  Result<Query> parsed = ParseQuery(xpath, &synopsis_.names());
  if (!parsed.ok()) return parsed.status();
  return EstimateQuery(parsed.value());
}

Result<SelectivityEstimate> SelectivityEstimator::EstimateQuery(
    const Query& query) {
  return EstimateQueryOnView(ViewOf(synopsis_), query);
}

ThreadPool* SelectivityEstimator::pool(int32_t threads) {
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

std::vector<Result<SelectivityEstimate>> SelectivityEstimator::EstimateBatch(
    std::span<const std::string_view> xpaths, int32_t threads) {
  // Parsing interns labels into the synopsis NameTable, so it stays on
  // the calling thread; evaluation parallelism comes from the Query
  // overload.
  return EstimateStringBatch(
      xpaths, &synopsis_.names(), [this, threads](std::span<const Query> q) {
        return EstimateBatch(q, threads);
      });
}

std::vector<Result<SelectivityEstimate>> SelectivityEstimator::EstimateBatch(
    std::span<const Query> queries, int32_t threads) {
  if (threads <= 0) threads = DefaultThreadCount();
  // Build the eval cache eagerly so workers never contend on the
  // lazy-init mutex.
  ServingView view = ViewOf(synopsis_);
  return EstimateBatchOnView(view, queries, threads,
                             threads == 1 ? nullptr : pool(threads));
}

Status SelectivityEstimator::ApplyUpdate(const UpdateOp& op) {
  XMLSEL_RETURN_IF_ERROR(ApplyUpdateDeferred(op));
  RecomputeLossy();
  return Status::OK();
}

Status SelectivityEstimator::ApplyUpdateDeferred(const UpdateOp& op) {
  LabelId seam_parent = -1;
  XMLSEL_RETURN_IF_ERROR(ApplyUpdateToGrammar(
      synopsis_.mutable_lossless(), &synopsis_.names(), op,
      synopsis_.options().bplex, &seam_parent));
  // Keep the label maps sound: union in the inserted tree's internal
  // adjacencies plus the seam edge (insertion parent → inserted root).
  // Deletions only shrink true adjacency, so the old maps stay sound.
  if (op.kind != UpdateOp::Kind::kDelete &&
      op.tree.document_element() != kNullNode) {
    LabelMaps tree_maps = ComputeLabelMaps(op.tree);
    LabelMaps translated;
    translated.label_count = synopsis_.names().size();
    translated.child.assign(
        static_cast<size_t>(translated.label_count),
        std::vector<bool>(static_cast<size_t>(translated.label_count),
                          false));
    translated.parent = translated.child;
    auto translate = [this, &op](int32_t l) -> LabelId {
      return synopsis_.names().Lookup(op.tree.names().Name(l));
    };
    // Rows for the tree's own virtual root are skipped: the inserted root
    // hangs under the seam parent, not under the document root.
    for (int32_t a = 1; a < tree_maps.label_count; ++a) {
      LabelId ta = translate(a);
      if (ta < 0) continue;
      for (int32_t b = 1; b < tree_maps.label_count; ++b) {
        LabelId tb = translate(b);
        if (tb < 0) continue;
        if (tree_maps.child[static_cast<size_t>(a)][static_cast<size_t>(b)]) {
          translated.child[static_cast<size_t>(ta)][static_cast<size_t>(tb)] =
              true;
          translated.parent[static_cast<size_t>(tb)][static_cast<size_t>(ta)] =
              true;
        }
      }
    }
    LabelId root_label = synopsis_.names().Lookup(
        op.tree.names().Name(op.tree.label(op.tree.document_element())));
    if (seam_parent >= 0 && root_label > 0) {
      translated.child[static_cast<size_t>(seam_parent)]
                      [static_cast<size_t>(root_label)] = true;
      translated.parent[static_cast<size_t>(root_label)]
                       [static_cast<size_t>(seam_parent)] = true;
    }
    MergeLabelMaps(synopsis_.mutable_label_maps(), translated);
  }
  return Status::OK();
}

}  // namespace xmlsel
