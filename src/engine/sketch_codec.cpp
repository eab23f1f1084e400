#include "engine/sketch_codec.hpp"

#include <type_traits>
#include <utility>
#include <vector>

#include "engine/sketch_reader.hpp"
#include "engine/wire.hpp"

namespace mcf0 {

std::string SketchCodec::Encode(const BucketingSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeBucketingPayload(w, row, /*embed_hash=*/true);
  return wire::WrapFrame(SketchFrameKind::kBucketingRow, kFormatV2, w.Take());
}

std::string SketchCodec::Encode(const MinimumSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeMinimumPayload(w, row, /*embed_hash=*/true);
  return wire::WrapFrame(SketchFrameKind::kMinimumRow, kFormatV2, w.Take());
}

std::string SketchCodec::Encode(const EstimationSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeEstimationPayload(w, row, /*embed_hash=*/true);
  return wire::WrapFrame(SketchFrameKind::kEstimationRow, kFormatV2, w.Take());
}

std::string SketchCodec::Encode(const FlajoletMartinRow& row) {
  wire::ByteWriter w;
  wire::EncodeFmPayload(w, row, /*embed_hash=*/true);
  return wire::WrapFrame(SketchFrameKind::kFlajoletMartinRow, kFormatV2,
                         w.Take());
}

std::string SketchCodec::Encode(const StructuredBucketRow& row) {
  wire::ByteWriter w;
  wire::EncodeStructuredBucketPayload(w, row, /*embed_hash=*/true);
  return wire::WrapFrame(SketchFrameKind::kStructuredBucketRow, kFormatV2,
                         w.Take());
}

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

Result<SketchFrameKind> SketchCodec::PeekFrameKind(std::string_view bytes) {
  if (bytes.size() < 7 || bytes.substr(0, 4) != "MCF0") {
    return Status::ParseError("bad magic: not an mcf0 sketch blob");
  }
  const uint8_t kind = static_cast<uint8_t>(bytes[6]);
  if (kind > static_cast<uint8_t>(SketchFrameKind::kStructuredBucketRow)) {
    return Status::ParseError("unknown sketch frame kind " +
                              std::to_string(kind));
  }
  return static_cast<SketchFrameKind>(kind);
}

Result<BucketingSketchRow> SketchCodec::DecodeBucketingRow(
    std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      wire::UnwrapFrame(bytes, SketchFrameKind::kBucketingRow, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  std::optional<BucketingSketchRow> row;
  Status status = wire::DecodeBucketingPayload(r, version, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in bucketing row");
  return *std::move(row);
}

Result<MinimumSketchRow> SketchCodec::DecodeMinimumRow(std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      wire::UnwrapFrame(bytes, SketchFrameKind::kMinimumRow, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  std::optional<MinimumSketchRow> row;
  Status status = wire::DecodeMinimumPayload(r, version, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in minimum row");
  return *std::move(row);
}

Result<StructuredBucketRow> SketchCodec::DecodeStructuredBucketRow(
    std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      wire::UnwrapFrame(bytes, SketchFrameKind::kStructuredBucketRow,
                        &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  std::optional<StructuredBucketRow> row;
  Status status =
      wire::DecodeStructuredBucketPayload(r, version, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) {
    return Status::ParseError("trailing bytes in structured bucketing row");
  }
  return *std::move(row);
}

Result<EstimationSketchRow> SketchCodec::DecodeEstimationRow(
    std::string_view bytes, const Gf2Field* field) {
  uint16_t version = 0;
  auto payload =
      wire::UnwrapFrame(bytes, SketchFrameKind::kEstimationRow, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  std::optional<EstimationSketchRow> row;
  Status status =
      wire::DecodeEstimationPayload(r, version, field, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in estimation row");
  return *std::move(row);
}

Result<FlajoletMartinRow> SketchCodec::DecodeFlajoletMartinRow(
    std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      wire::UnwrapFrame(bytes, SketchFrameKind::kFlajoletMartinRow, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  std::optional<FlajoletMartinRow> row;
  Status status = wire::DecodeFmPayload(r, version, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in FM row");
  return *std::move(row);
}

Result<F0Estimator> SketchCodec::DecodeF0Estimator(std::string_view bytes) {
  // One decode path for both versions and both consumption styles: the
  // whole-estimator decoder is the streaming cursor, drained.
  auto opened = SketchReader::Open(bytes);
  if (!opened.ok()) return opened.status();
  SketchReader reader = std::move(opened).value();

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
  if (reader.frame_kind() != SketchFrameKind::kStructuredF0) {
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
  auto kind = SketchCodec::PeekFrameKind(bytes);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SketchFrameKind::kStructuredF0) {
    auto sketch = SketchCodec::DecodeStructuredF0(bytes);
    if (!sketch.ok()) return sketch.status();
    return SketchVariant(std::move(sketch).value());
  }
  // Anything else routes through the raw decoder, whose frame check
  // produces the canonical kind-mismatch error for row frames.
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
