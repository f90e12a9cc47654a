// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "estimator/serving.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "automaton/grammar_eval.h"
#include "query/parser.h"
#include "xmlsel/rcu.h"

namespace xmlsel {

namespace {

using PreparedHandle = std::shared_ptr<const PreparedQuery>;

/// One bound evaluation; the count is meaningful only when the returned
/// status is OK. The RCU guard pins any decode-cache rules the evaluator
/// borrows, so a concurrent EnforceDecodeBudget on the underlying image
/// can never free them mid-evaluation.
Result<int64_t> EvaluateBound(const ServingView& view, const CompiledQuery& cq,
                              BoundMode mode) {
  RcuDomain::ReadGuard guard;
  GrammarEvaluator eval(view.provider, &cq, view.maps, mode);
  GrammarEvalResult r = eval.Evaluate();
  if (!r.status.ok()) return r.status;
  return r.count;
}

SelectivityEstimate Finalize(const ServingView& view, const PreparedQuery& pq,
                             int64_t lower, int64_t upper) {
  SelectivityEstimate est;
  est.lower = lower;
  est.upper = upper;
  // Global cap (§5.4's spirit, "the total contribution is bounded"): no
  // query can select more nodes than carry the match node's label.
  int64_t cap = pq.match_test > 0 ? ServingLabelTotal(view, pq.match_test)
                                  : view.element_total;
  est.upper = std::min(est.upper, cap);
  est.upper = std::max(est.upper, est.lower);
  return est;
}

}  // namespace

int64_t ServingLabelTotal(const ServingView& view, LabelId label) {
  if (label < 0 || label >= static_cast<LabelId>(view.label_totals.size())) {
    return view.element_total;
  }
  return view.label_totals[static_cast<size_t>(label)];
}

Result<SelectivityEstimate> EstimateQueryOnView(const ServingView& view,
                                                const Query& query) {
  Result<PreparedHandle> prepared = view.query_cache->Prepare(query);
  if (!prepared.ok()) return prepared.status();
  const PreparedQuery& pq = *prepared.value();
  if (pq.unsatisfiable) {
    return SelectivityEstimate{0, 0};  // provably empty: exact answer
  }
  Result<int64_t> lower = EvaluateBound(view, pq.lower, BoundMode::kLower);
  if (!lower.ok()) return lower.status();
  Result<int64_t> upper =
      EvaluateBound(view, UpperQueryOf(pq), BoundMode::kUpper);
  if (!upper.ok()) return upper.status();
  return Finalize(view, pq, lower.value(), upper.value());
}

std::vector<Result<SelectivityEstimate>> EstimateBatchOnView(
    const ServingView& view, std::span<const Query> queries, int32_t threads,
    ThreadPool* pool) {
  const size_t n = queries.size();

  // Phase 1 (controller thread): rewrite every query and intern its
  // compilation — k distinct shapes in the batch cost exactly k compiles,
  // however many queries share them.
  std::vector<Result<PreparedHandle>> prepared;
  prepared.reserve(n);
  for (const Query& q : queries) {
    prepared.push_back(view.query_cache->Prepare(q));
  }

  // Phase 2: evaluate both bounds of every compiled query. Each task owns
  // its evaluator (registry + memo); the view is shared read-only (a
  // mapped provider's decode cache is internally synchronized). Each task
  // writes only its own slot of its own array, so no synchronization
  // beyond the pool barrier is needed.
  std::vector<int64_t> lower_counts(n, 0);
  std::vector<int64_t> upper_counts(n, 0);
  std::vector<Status> lower_status(n);
  std::vector<Status> upper_status(n);
  auto eval_one = [&](size_t i, BoundMode mode) {
    const PreparedQuery& pq = *prepared[i].value();
    if (mode == BoundMode::kLower) {
      Result<int64_t> r = EvaluateBound(view, pq.lower, BoundMode::kLower);
      if (r.ok()) lower_counts[i] = r.value();
      else lower_status[i] = r.status();
    } else {
      Result<int64_t> r =
          EvaluateBound(view, UpperQueryOf(pq), BoundMode::kUpper);
      if (r.ok()) upper_counts[i] = r.value();
      else upper_status[i] = r.status();
    }
  };
  const bool inline_run = threads == 1 || pool == nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (!prepared[i].ok() || prepared[i].value()->unsatisfiable) continue;
    for (BoundMode mode : {BoundMode::kLower, BoundMode::kUpper}) {
      if (inline_run) {
        eval_one(i, mode);
      } else {
        pool->Submit([&eval_one, i, mode] { eval_one(i, mode); });
      }
    }
  }
  if (!inline_run) pool->Wait();

  // Phase 3 (controller thread): caps and assembly.
  std::vector<Result<SelectivityEstimate>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!prepared[i].ok()) {
      out.push_back(Result<SelectivityEstimate>(prepared[i].status()));
    } else if (prepared[i].value()->unsatisfiable) {
      out.push_back(SelectivityEstimate{0, 0});
    } else if (!lower_status[i].ok()) {
      out.push_back(Result<SelectivityEstimate>(lower_status[i]));
    } else if (!upper_status[i].ok()) {
      out.push_back(Result<SelectivityEstimate>(upper_status[i]));
    } else {
      out.push_back(Finalize(view, *prepared[i].value(), lower_counts[i],
                             upper_counts[i]));
    }
  }
  return out;
}

std::vector<Result<SelectivityEstimate>> EstimateStringBatch(
    std::span<const std::string_view> xpaths, NameTable* names,
    const std::function<std::vector<Result<SelectivityEstimate>>(
        std::span<const Query>)>& estimate) {
  std::vector<Query> queries;
  queries.reserve(xpaths.size());
  std::vector<std::pair<size_t, Status>> parse_failures;
  for (size_t i = 0; i < xpaths.size(); ++i) {
    Result<Query> parsed = ParseQuery(xpaths[i], names);
    if (parsed.ok()) {
      queries.push_back(std::move(parsed).value());
    } else {
      parse_failures.emplace_back(i, parsed.status());
      // Minimal valid placeholder keeping positions aligned; its result
      // is overwritten with the parse error below.
      Query placeholder;
      placeholder.SetMatchNode(
          placeholder.AddNode(0, Axis::kChild, kWildcardTest));
      queries.push_back(std::move(placeholder));
    }
  }
  std::vector<Result<SelectivityEstimate>> out =
      estimate(std::span<const Query>(queries));
  for (const auto& [i, status] : parse_failures) {
    out[i] = Result<SelectivityEstimate>(status);
  }
  return out;
}

}  // namespace xmlsel
