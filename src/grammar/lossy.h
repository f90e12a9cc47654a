// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// κ-lossy compression of SLT grammars (§4.2): iteratively delete the
// production with the lowest multiplicity (never the start production),
// replacing each occurrence A_i(t_1,…,t_k) by a star node
//
//     *(t_1,…,t_k, h, s)        if the right-most leaf of ex(t) is y_k,
//     *(t_1,…,t_k, ⊥, h, s)     otherwise,
//
// where (h, s) are the unranked height and size of the deleted pattern —
// taken from the lossless analysis, so nested deletions keep exact totals.
//
// Also provides the child/parent label maps used by the upper-bound
// estimator (§5.4's pruning optimization).

#ifndef XMLSEL_GRAMMAR_LOSSY_H_
#define XMLSEL_GRAMMAR_LOSSY_H_

#include <vector>

#include "grammar/slt.h"
#include "xml/document.h"

namespace xmlsel {

/// Result of the lossy transformation.
struct LossyGrammar {
  SltGrammar grammar;
  /// How many productions were actually deleted (≤ κ; fewer when the
  /// grammar runs out of deletable rules).
  int32_t deleted = 0;
};

/// Deletes (up to) `kappa` lowest-multiplicity productions, ties to the
/// lowest rule index. `lossless` must be star-free. Multiplicities are
/// kept exact incrementally after every deletion, so the victims are the
/// same as recomputing them each round (the iterative process of §4.2).
/// A deletion touches only the victim's call sites and the live rules
/// below it in the call DAG.
LossyGrammar MakeLossy(const SltGrammar& lossless, int32_t kappa);

/// Label adjacency maps of a document, used to prune the set of trees a
/// star node can hide (§5.4). Row kRootLabel of `child` describes the
/// children of the virtual root (i.e., the document element's label).
struct LabelMaps {
  /// child[a][b] = true iff some b-element is a child of an a-element.
  std::vector<std::vector<bool>> child;
  /// parent[b][a] = true iff some b-element has an a-labeled parent
  /// (row indexed by child label).
  std::vector<std::vector<bool>> parent;
  int32_t label_count = 0;
};

/// One pass over the document.
LabelMaps ComputeLabelMaps(const Document& doc);

/// Merges `other` into `base` (set union); used to keep the maps sound
/// across incremental updates without re-scanning the database.
void MergeLabelMaps(LabelMaps* base, const LabelMaps& other);

}  // namespace xmlsel

#endif  // XMLSEL_GRAMMAR_LOSSY_H_
