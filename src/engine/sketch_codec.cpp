#include "engine/sketch_codec.hpp"

#include <type_traits>
#include <utility>
#include <vector>

#include "engine/sketch_reader.hpp"
#include "engine/wire.hpp"

namespace mcf0 {

std::string SketchCodec::Encode(const StructuredF0& sketch) {
  // The same elision rule as raw estimators: hash state vanishes when it
  // is attested (or proven) to match the canonical sampler replay — and
  // when the replay itself is affordable for a decoder driven by the
  // untrusted parameter block alone.
  const bool elide =
      static_cast<uint64_t>(sketch.params().n) <=
          wire::kMaxElidedStructuredUniverseBits &&
      (sketch.hashes_canonical() || wire::HashesMatchCanonicalSample(sketch));
  wire::ByteWriter w;
  wire::EncodeStructuredParams(w, sketch.params());
  w.U8(elide ? 1 : 0);
  const bool minimum =
      sketch.params().algorithm == StructuredF0Algorithm::kMinimum;
  w.Varint(minimum ? sketch.minimum_rows().size()
                   : sketch.bucketing_rows().size());
  if (minimum) {
    for (const auto& row : sketch.minimum_rows()) {
      wire::EncodeMinimumPayload(w, row, !elide);
    }
  } else {
    for (const auto& row : sketch.bucketing_rows()) {
      wire::EncodeStructuredBucketPayload(w, row, !elide);
    }
  }
  return wire::WrapFrame(SketchFrameKind::kStructuredF0, kFormatV2, w.Take());
}

std::string SketchCodec::Encode(const F0Estimator& est) {
  // Hash state is elided when it matches the canonical F0RowSampler
  // draws for these parameters. The common case is O(state): a freshly
  // constructed or canonically decoded estimator carries a
  // hashes_canonical attestation (see F0Estimator::Parts) and skips the
  // sampler replay entirely. Hand-assembled FromParts estimators take the
  // slow comparison path — and fall back to embedding when it fails — as
  // do Estimation sketches whose per-row hash state exceeds the decoder's
  // replay allocation cap (files the codec writes must stay readable).
  const bool elide =
      (est.params().algorithm != F0Algorithm::kEstimation ||
       F0Thresh(est.params()) *
               static_cast<uint64_t>(F0IndependenceS(est.params())) <=
           wire::kMaxElidedHashCoeffs) &&
      (est.hashes_canonical() || wire::HashesMatchCanonicalSample(est));
  wire::ByteWriter w;
  wire::EncodeParams(w, est.params());
  w.U8(elide ? 1 : 0);
  switch (est.params().algorithm) {
    case F0Algorithm::kBucketing:
      w.Varint(est.bucketing_rows().size());
      for (const auto& row : est.bucketing_rows()) {
        wire::EncodeBucketingPayload(w, row, !elide);
      }
      break;
    case F0Algorithm::kMinimum:
      w.Varint(est.minimum_rows().size());
      for (const auto& row : est.minimum_rows()) {
        wire::EncodeMinimumPayload(w, row, !elide);
      }
      break;
    case F0Algorithm::kEstimation:
      w.Varint(static_cast<uint64_t>(est.field()->degree()));
      w.U64(est.field()->modulus_low());
      w.Varint(est.estimation_rows().size());
      for (const auto& row : est.estimation_rows()) {
        wire::EncodeEstimationPayload(w, row, !elide);
      }
      w.Varint(est.fm_rows().size());
      for (const auto& row : est.fm_rows()) {
        wire::EncodeFmPayload(w, row, !elide);
      }
      break;
  }
  return wire::WrapFrame(SketchFrameKind::kF0Estimator, kFormatV2, w.Take());
}

Result<uint16_t> SketchCodec::PeekFormatVersion(std::string_view bytes) {
  if (bytes.size() < 6 || bytes.substr(0, 4) != "MCF0") {
    return Status::ParseError("bad magic: not an mcf0 sketch blob");
  }
  wire::ByteReader r(bytes.substr(4, 2));
  uint16_t version = 0;
  r.U16(&version);
  return version;
}

Result<F0Estimator> SketchCodec::DecodeF0Estimator(std::string_view bytes) {
  // One decode path for both versions and both consumption styles: the
  // whole-estimator decoder is the streaming cursor, drained.
  auto opened = SketchReader::Open(bytes);
  if (!opened.ok()) return opened.status();
  SketchReader reader = std::move(opened).value();
  if (reader.structured()) {
    return Status::InvalidArgument(
        "sketch frame holds a structured sketch, not a raw F0 estimator");
  }

  F0Estimator::Parts parts = F0Estimator::EmptyParts();
  while (!reader.AtEnd()) {
    auto unit = reader.Next();
    if (!unit.ok()) return unit.status();
    std::visit(
        [&](auto&& row) {
          using Row = std::decay_t<decltype(row)>;
          if constexpr (std::is_same_v<Row, BucketingSketchRow>) {
            parts.bucketing.push_back(std::move(row));
          } else if constexpr (std::is_same_v<Row, MinimumSketchRow>) {
            parts.minimum.push_back(std::move(row));
          } else if constexpr (std::is_same_v<Row, EstimationSketchRow>) {
            parts.estimation.push_back(std::move(row));
          } else if constexpr (std::is_same_v<Row, FlajoletMartinRow>) {
            parts.fm.push_back(std::move(row));
          } else {
            MCF0_CHECK(false);  // structured rows never appear in raw frames
          }
        },
        std::move(unit).value());
  }
  parts.params = reader.params();
  parts.field = reader.TakeField();
  // An elided frame's hashes were just *derived from* the canonical
  // sampler replay, so the attestation holds by construction; embedded
  // frames (and all of v1) stay conservatively unattested — Encode's slow
  // comparison path can still prove them canonical later.
  parts.hashes_canonical = reader.hashes_elided();
  return F0Estimator::FromParts(std::move(parts));
}

Result<StructuredF0> SketchCodec::DecodeStructuredF0(std::string_view bytes) {
  // Same shape as the raw decoder: the streaming cursor, drained.
  auto opened = SketchReader::Open(bytes);
  if (!opened.ok()) return opened.status();
  SketchReader reader = std::move(opened).value();
  if (!reader.structured()) {
    return Status::InvalidArgument(
        "sketch frame holds a raw F0 estimator, not a structured sketch");
  }

  StructuredF0::Parts parts = StructuredF0::EmptyParts();
  while (!reader.AtEnd()) {
    auto unit = reader.Next();
    if (!unit.ok()) return unit.status();
    std::visit(
        [&](auto&& row) {
          using Row = std::decay_t<decltype(row)>;
          if constexpr (std::is_same_v<Row, MinimumSketchRow>) {
            parts.minimum.push_back(std::move(row));
          } else if constexpr (std::is_same_v<Row, StructuredBucketRow>) {
            parts.bucketing.push_back(std::move(row));
          } else {
            MCF0_CHECK(false);  // word rows never appear in structured frames
          }
        },
        std::move(unit).value());
  }
  parts.params = reader.structured_params();
  parts.hashes_canonical = reader.hashes_elided();
  return StructuredF0::FromParts(std::move(parts));
}

// ---- SketchVariant --------------------------------------------------------

Result<SketchVariant> SketchVariant::Decode(std::string_view bytes) {
  if (wire::ClaimedSketchKind(bytes) == SketchFrameKind::kStructuredF0) {
    auto sketch = SketchCodec::DecodeStructuredF0(bytes);
    if (!sketch.ok()) return sketch.status();
    return SketchVariant(std::move(sketch).value());
  }
  auto est = SketchCodec::DecodeF0Estimator(bytes);
  if (!est.ok()) return est.status();
  return SketchVariant(std::move(est).value());
}

double SketchVariant::Estimate() const {
  return std::visit([](const auto& sketch) { return sketch.Estimate(); },
                    sketch_);
}

size_t SketchVariant::SpaceBits() const {
  return std::visit([](const auto& sketch) { return sketch.SpaceBits(); },
                    sketch_);
}

bool SketchVariant::hashes_canonical() const {
  return std::visit(
      [](const auto& sketch) { return sketch.hashes_canonical(); }, sketch_);
}

std::string SketchVariant::Encode() const {
  return std::visit(
      [](const auto& sketch) { return SketchCodec::Encode(sketch); }, sketch_);
}

}  // namespace mcf0
