// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Mapped-image audits (storage/mapped.h). Two entry points:
//
//  - VerifyMappedImage: audits an opened image in place — checksum,
//    grammar well-formedness of both layers, label-map and label-total
//    consistency, and per-rule witnesses for the §7 decoder (there is one,
//    DecodePackedRule in storage/packed_cursor.h, so no second decoder
//    can vouch for it):
//      * re-encoding every decoded rule reproduces its payload slice
//        byte-exactly — the encoder is the oracle for what was decoded;
//      * every decode-cache slot equals the flattening of that
//        re-encoded rule — the evaluator is served what was checked;
//      * every slot equals an uncached decode of the same bytes — the
//        cache neither drifted nor kept a stale rule.
//  - VerifyMappedRoundTrip: the end-to-end witness used by the pipeline
//    verifier — build an image from a synopsis, open it with checksum
//    verification, audit it, thaw it, and require the thawed synopsis to
//    be structurally identical to the original (CompareGrammars against
//    the grammar the image was built from).

#include <string>
#include <vector>

#include "estimator/synopsis.h"
#include "storage/bitio.h"
#include "storage/mapped.h"
#include "storage/packed.h"
#include "verify/verify.h"

namespace xmlsel {

namespace {

/// Element-for-element comparison of two flat rule forms — the identity
/// the decode cache rests on: decode-cache slots, uncached decodes, and
/// the flattener must be indistinguishable to the evaluator.
Status CompareFlatRules(const RuleEvalData& got, const RuleEvalData& want) {
  if (!got.valid) return Status::Corruption("rule is invalid");
  if (got.rank != want.rank) {
    return Status::Corruption("rank " + std::to_string(got.rank) + " != " +
                              std::to_string(want.rank));
  }
  if (got.root != want.root) {
    return Status::Corruption("root " + std::to_string(got.root) + " != " +
                              std::to_string(want.root));
  }
  if (got.nodes.size() != want.nodes.size()) {
    return Status::Corruption("node count " +
                              std::to_string(got.nodes.size()) + " != " +
                              std::to_string(want.nodes.size()));
  }
  for (size_t i = 0; i < got.nodes.size(); ++i) {
    const RuleNodeView& a = got.nodes[i];
    const RuleNodeView& b = want.nodes[i];
    if (a.kind != b.kind || a.sym != b.sym || a.child_begin != b.child_begin ||
        a.child_count != b.child_count) {
      return Status::Corruption("node " + std::to_string(i) + " differs");
    }
  }
  auto compare_ints = [](std::span<const int32_t> a,
                         std::span<const int32_t> b,
                         const char* what) -> Status {
    if (a.size() != b.size()) {
      return Status::Corruption(std::string(what) + " size " +
                                std::to_string(a.size()) + " != " +
                                std::to_string(b.size()));
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) {
        return Status::Corruption(std::string(what) + " entry " +
                                  std::to_string(i) + " differs");
      }
    }
    return Status::OK();
  };
  XMLSEL_RETURN_IF_ERROR(
      compare_ints(got.children, want.children, "children"));
  XMLSEL_RETURN_IF_ERROR(
      compare_ints(got.post_order, want.post_order, "post_order"));
  XMLSEL_RETURN_IF_ERROR(compare_ints(got.star_root_begin,
                                      want.star_root_begin,
                                      "star_root_begin"));
  XMLSEL_RETURN_IF_ERROR(compare_ints(got.star_root_labels,
                                      want.star_root_labels,
                                      "star_root_labels"));
  return Status::OK();
}

/// Audits one layer: assemble it, check well-formedness, then require
/// (a) re-encoding every rule to reproduce its payload slice bit-exactly
/// (so the decoder and the directory's offsets/bit lengths are honest)
/// and (b) every decode-cache slot to agree with both the flattened
/// re-encoded rule and an uncached decode.
Status VerifyMappedLayer(const MappedSynopsis& image, int layer) {
  const MappedSynopsis::Layer& L =
      layer == 0 ? image.lossless_layer() : image.lossy_layer();
  const std::string at = "mapped: layer " + std::to_string(layer);

  Result<SltGrammar> assembled = image.AssembleGrammar(layer);
  if (!assembled.ok()) return assembled.status();
  const SltGrammar& g = assembled.value();
  XMLSEL_RETURN_IF_ERROR(VerifyGrammar(g, image.header().label_count));
  if (layer == 0 && g.IsLossy()) {
    return Status::Corruption(at + " (lossless) contains star nodes");
  }

  // Re-encode every rule and compare against the mapped payload slice.
  std::span<const uint8_t> payload = L.payload();
  for (int32_t i = 0; i < g.rule_count(); ++i) {
    BitWriter w;
    EncodePackedRule(g, i, image.header().label_count, &w);
    if (w.bit_count() != static_cast<int64_t>(L.rule_bit_len(i))) {
      return Status::Corruption(
          at + " rule " + std::to_string(i) + " re-encodes to " +
          std::to_string(w.bit_count()) + " bits, directory declares " +
          std::to_string(L.rule_bit_len(i)));
    }
    std::vector<uint8_t> bytes = w.Finish();
    uint64_t off = L.rule_offset(i);
    if (off > payload.size() || bytes.size() > payload.size() - off) {
      return Status::Corruption(at + " rule " + std::to_string(i) +
                                " escapes its payload section");
    }
    for (size_t b = 0; b < bytes.size(); ++b) {
      if (bytes[b] != payload[static_cast<size_t>(off) + b]) {
        return Status::Corruption(
            at + " rule " + std::to_string(i) +
            " payload differs from its re-encoding at byte " +
            std::to_string(b));
      }
    }
  }

  // Every decode-cache slot must serve exactly the flattening of the
  // re-encoded rule, and agree with an uncached decode of its bytes.
  FlatRuleData reference;
  FlatRuleData uncached;
  for (int32_t i = 0; i < L.rule_count(); ++i) {
    FlattenRule(g.rule(i), L.maps(), &reference);
    RuleEvalData d = L.Rule(i);
    if (!d.valid) {
      return Status::Corruption(at + " rule " + std::to_string(i) +
                                " failed lazy decode: " +
                                L.error().ToString());
    }
    Status cmp = CompareFlatRules(d, reference.View());
    if (!cmp.ok()) {
      return Status::Corruption(
          at + " rule " + std::to_string(i) +
          " decode-cache slot disagrees with the re-encoded rule: " +
          cmp.message());
    }
    Status st = L.DecodeRuleFlat(i, &uncached);
    if (!st.ok()) {
      return Status::Corruption(at + " rule " + std::to_string(i) +
                                " failed uncached decode: " +
                                st.ToString());
    }
    cmp = CompareFlatRules(d, uncached.View());
    if (!cmp.ok()) {
      return Status::Corruption(
          at + " rule " + std::to_string(i) +
          " decode-cache slot disagrees with an uncached decode: " +
          cmp.message());
    }
  }
  // Every rule is now decoded; the cache counters must agree with an
  // exact recount (resident bytes charged at vector capacities).
  Status audit = L.AuditDecodeCache();
  if (!audit.ok()) {
    return Status::Corruption(at + " decode-cache audit failed: " +
                              audit.message());
  }
  Status provider_error = L.error();
  if (!provider_error.ok()) return provider_error;
  return Status::OK();
}

}  // namespace

Status VerifyMappedImage(const MappedSynopsis& image) {
  XMLSEL_RETURN_IF_ERROR(image.VerifyChecksum());
  XMLSEL_RETURN_IF_ERROR(VerifyLabelMaps(image.label_maps()));

  int64_t sum = 0;
  for (int64_t t : image.label_totals()) {
    if (t < 0) {
      return Status::Corruption("mapped: negative label total");
    }
    sum += t;
  }
  if (sum != image.element_total()) {
    return Status::Corruption(
        "mapped: label totals sum to " + std::to_string(sum) +
        ", header declares element total " +
        std::to_string(image.element_total()));
  }
  if (image.names().size() != image.header().label_count) {
    return Status::Corruption("mapped: name table size disagrees with the "
                              "header label count");
  }

  XMLSEL_RETURN_IF_ERROR(VerifyMappedLayer(image, 0));
  XMLSEL_RETURN_IF_ERROR(VerifyMappedLayer(image, 1));
  return Status::OK();
}

Status VerifyMappedRoundTrip(const Synopsis& synopsis) {
  std::vector<uint8_t> image_bytes = BuildMappedImage(synopsis);
  MappedOpenOptions options;
  options.verify_checksum = true;
  Result<std::unique_ptr<MappedSynopsis>> opened =
      MappedSynopsis::FromBuffer(std::move(image_bytes), options);
  if (!opened.ok()) {
    return Status::Corruption("mapped: freshly built image failed to open: " +
                              opened.status().ToString());
  }
  const MappedSynopsis& image = *opened.value();
  XMLSEL_RETURN_IF_ERROR(VerifyMappedImage(image));

  Result<Synopsis> thawed = image.Thaw();
  if (!thawed.ok()) {
    return Status::Corruption("mapped: image failed to thaw: " +
                              thawed.status().ToString());
  }
  const Synopsis& t = thawed.value();
  Status cmp = CompareGrammars(t.lossless(), synopsis.lossless());
  if (!cmp.ok()) {
    return Status::Corruption(
        "mapped: thawed lossless layer differs from the original: " +
        cmp.message());
  }
  cmp = CompareGrammars(t.lossy(), synopsis.lossy());
  if (!cmp.ok()) {
    return Status::Corruption(
        "mapped: thawed lossy layer differs from the original: " +
        cmp.message());
  }
  if (t.names().size() != synopsis.names().size()) {
    return Status::Corruption("mapped: thawed name table size differs");
  }
  for (LabelId l = 0; l < synopsis.names().size(); ++l) {
    if (t.names().Name(l) != synopsis.names().Name(l)) {
      return Status::Corruption("mapped: thawed name " + std::to_string(l) +
                                " differs");
    }
    if (t.LabelTotal(l) != synopsis.LabelTotal(l)) {
      return Status::Corruption("mapped: thawed LabelTotal(" +
                                std::to_string(l) + ") differs");
    }
  }
  if (t.ElementTotal() != synopsis.ElementTotal() ||
      t.options().kappa != synopsis.options().kappa ||
      t.deleted_productions() != synopsis.deleted_productions()) {
    return Status::Corruption(
        "mapped: thawed totals/kappa/deleted differ from the original");
  }
  XMLSEL_RETURN_IF_ERROR(VerifyLabelMaps(t.label_maps()));
  if (t.label_maps().label_count != synopsis.label_maps().label_count) {
    return Status::Corruption("mapped: thawed label maps dimension differs");
  }
  for (int32_t a = 0; a < t.label_maps().label_count; ++a) {
    if (t.label_maps().child[static_cast<size_t>(a)] !=
        synopsis.label_maps().child[static_cast<size_t>(a)]) {
      return Status::Corruption("mapped: thawed label maps row " +
                                std::to_string(a) + " differs");
    }
  }
  return Status::OK();
}

}  // namespace xmlsel
