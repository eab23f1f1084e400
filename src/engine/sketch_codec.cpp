#include "engine/sketch_codec.hpp"

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/wire.hpp"

namespace mcf0 {
namespace {

/// Unwraps a whole-sketch frame of kind `want`: the header's kind byte is
/// honored first, so a frame of the other whole-sketch kind is named as
/// such rather than refused as an unknown kind.
Result<std::string_view> UnwrapSketchFrame(std::string_view bytes,
                                           SketchFrameKind want,
                                           uint16_t* version) {
  const SketchFrameKind claimed = wire::ClaimedSketchKind(bytes);
  auto payload = wire::UnwrapFrame(bytes, claimed, version);
  if (!payload.ok()) return payload.status();
  if (claimed == SketchFrameKind::kStructuredF0 &&
      *version != SketchCodec::kFormatV2) {
    return Status::NotSupported("structured sketch frames require format v2");
  }
  if (claimed != want) {
    return Status::InvalidArgument(
        claimed == SketchFrameKind::kStructuredF0
            ? "sketch frame holds a structured sketch, not a raw F0 estimator"
            : "sketch frame holds a raw F0 estimator, not a structured "
              "sketch");
  }
  return payload;
}

/// The v2 hash-mode byte: 1 when the frame elides hash state ("canonical
/// hashes"), 0 when it embeds it.
Status ReadHashMode(wire::ByteReader& r, bool* elided) {
  uint8_t hash_mode = 0;
  if (!r.U8(&hash_mode)) return wire::Truncated("sketch hash mode");
  if (hash_mode > 1) {
    return Status::ParseError("bad sketch hash mode " +
                              std::to_string(hash_mode));
  }
  *elided = hash_mode == 1;
  return Status::Ok();
}

/// A row count, which must be the one the parameters imply. Every row
/// occupies at least one payload byte, so a count beyond the remaining
/// bytes is hostile and is refused before any row is decoded.
Status ReadRowCount(wire::ByteReader& r, uint16_t version, int rows,
                    const char* what) {
  uint64_t count = 0;
  if (!r.Count(version, &count)) return wire::Truncated(what);
  if (count != static_cast<uint64_t>(rows)) {
    return Status::ParseError(std::string(what) +
                              ": row count disagrees with parameters");
  }
  if (count > r.Remaining()) return wire::Truncated(what);
  return Status::Ok();
}

/// A decoded row must be what the sampling constructor would have built
/// from the frame's parameters; `what` names the row kind.
Status CheckRowFits(bool fits, const char* what) {
  if (fits) return Status::Ok();
  return Status::ParseError(std::string(what) +
                            " row disagrees with sketch parameters");
}

}  // namespace

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
    case F0Algorithm::kEstimation: {
      const Gf2Field& field = Gf2Field::Of(est.params().n);
      w.Varint(static_cast<uint64_t>(field.degree()));
      w.U64(field.modulus_low());
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
  }
  return wire::WrapFrame(SketchFrameKind::kF0Estimator, kFormatV2, w.Take());
}

Result<uint16_t> SketchCodec::PeekFormatVersion(std::string_view bytes) {
  wire::FrameHeader header;
  const Status status = wire::ParseFrameHeader(bytes, &header);
  if (!status.ok()) return status;
  return header.version;
}

Result<F0Estimator> SketchCodec::DecodeF0Estimator(std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      UnwrapSketchFrame(bytes, SketchFrameKind::kF0Estimator, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  F0Estimator::Parts parts = F0Estimator::EmptyParts();
  Status status = wire::DecodeParams(r, &parts.params);
  if (!status.ok()) return status;
  const F0Params& params = parts.params;
  const uint64_t thresh = F0Thresh(params);
  const int rows = F0Rows(params);
  const int s = F0IndependenceS(params);
  // v1 always embeds hash state; a v2 frame says which in its mode byte.
  bool elided = false;
  if (version != kFormatV1) {
    status = ReadHashMode(r, &elided);
    if (!status.ok()) return status;
  }
  std::optional<F0RowSampler> sampler;
  if (elided) sampler.emplace(params);

  switch (params.algorithm) {
    case F0Algorithm::kBucketing:
      status = ReadRowCount(r, version, rows, "bucketing rows");
      for (int i = 0; status.ok() && i < rows; ++i) {
        std::optional<BucketingSketchRow> sampled;
        std::optional<BucketingSketchRow> row;
        if (elided) sampled = sampler->NextBucketingRow();
        status = wire::DecodeBucketingPayload(
            r, version, sampled ? &sampled->hash() : nullptr, &row);
        if (!status.ok()) break;
        status = CheckRowFits(
            row->hash().n() == params.n && row->thresh() == thresh,
            "bucketing");
        if (status.ok()) parts.bucketing.push_back(*std::move(row));
      }
      break;
    case F0Algorithm::kMinimum:
      status = ReadRowCount(r, version, rows, "minimum rows");
      for (int i = 0; status.ok() && i < rows; ++i) {
        std::optional<MinimumSketchRow> sampled;
        std::optional<MinimumSketchRow> row;
        if (elided) sampled = sampler->NextMinimumRow();
        status = wire::DecodeMinimumPayload(
            r, version, sampled ? &sampled->hash() : nullptr, &row);
        if (!status.ok()) break;
        status = CheckRowFits(row->hash().n() == params.n &&
                                  row->output_bits() == 3 * params.n &&
                                  row->thresh() == thresh,
                              "minimum");
        if (status.ok()) parts.minimum.push_back(*std::move(row));
      }
      break;
    case F0Algorithm::kEstimation: {
      uint64_t degree = 0;
      uint64_t modulus_low = 0;
      if (!r.Count(version, &degree) || !r.U64(&modulus_low)) {
        return wire::Truncated("estimation field");
      }
      if (degree != static_cast<uint64_t>(params.n)) {
        return Status::ParseError("estimation field degree differs from n");
      }
      const Gf2Field& field = Gf2Field::Of(params.n);
      if (field.modulus_low() != modulus_low) {
        // The modulus search is deterministic per degree; a mismatch means
        // the blob came from an incompatible implementation.
        return Status::NotSupported(
            "estimation field modulus differs from this build's");
      }
      status = ReadRowCount(r, version, rows, "estimation rows");
      if (!status.ok()) return status;
      // The canonical sampler materializes thresh polynomial hashes of s
      // coefficients per row, driven purely by the (untrusted) parameter
      // block — so before any elided row is sampled, pin thresh against
      // what a well-formed frame must carry anyway (at least one *bit*
      // per cell, now that v2 packs the cell block) and thresh * s
      // against the replay allocation cap the encoder honors. This keeps
      // a tiny crafted file from forcing a huge sampling allocation or an
      // int-narrowing abort ("decoding never aborts on bad input").
      if (elided &&
          (thresh > 8 * r.Remaining() ||
           thresh > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
           thresh * static_cast<uint64_t>(s) > wire::kMaxElidedHashCoeffs)) {
        return wire::Truncated("estimation rows");
      }
      // Each draw is an (Estimation, FM) pair, but the frame lays the FM
      // rows out after all Estimation rows: the FM halves wait here, so
      // every pair is drawn once.
      std::vector<FlajoletMartinRow> sampled_fm;
      for (int i = 0; status.ok() && i < rows; ++i) {
        // The replayed pair is a temporary; hand its hashes to the decoded
        // row instead of copying thresh * s coefficients.
        std::optional<std::vector<PolynomialHash>> hashes;
        if (elided) {
          auto pair = sampler->NextEstimationPair();
          hashes = std::move(pair.first).TakeHashes();
          sampled_fm.push_back(std::move(pair.second));
        }
        std::optional<EstimationSketchRow> row;
        status = wire::DecodeEstimationPayload(
            r, version, field, hashes ? &*hashes : nullptr, &row);
        if (!status.ok()) break;
        // Thresh cells, each hash drawn with s coefficients.
        bool fits = row->cells().size() == thresh;
        for (const PolynomialHash& h : row->hashes()) {
          fits = fits && h.s() == s;
        }
        status = CheckRowFits(fits, "estimation");
        if (status.ok()) parts.estimation.push_back(*std::move(row));
      }
      if (status.ok()) status = ReadRowCount(r, version, rows, "FM rows");
      for (int i = 0; status.ok() && i < rows; ++i) {
        std::optional<FlajoletMartinRow> row;
        status = wire::DecodeFmPayload(
            r, version, elided ? &sampled_fm[i].hash() : nullptr, &row);
        if (!status.ok()) break;
        status = CheckRowFits(row->hash().n() == params.n, "FM");
        if (status.ok()) parts.fm.push_back(*std::move(row));
      }
      break;
    }
  }
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in F0 sketch");
  // An elided frame's hashes were just *derived from* the canonical
  // sampler replay, so the attestation holds by construction; embedded
  // frames (and all of v1) stay conservatively unattested — Encode's slow
  // comparison path can still prove them canonical later.
  parts.hashes_canonical = elided;
  return F0Estimator::FromParts(std::move(parts));
}

Result<StructuredF0> SketchCodec::DecodeStructuredF0(std::string_view bytes) {
  uint16_t version = 0;
  auto payload =
      UnwrapSketchFrame(bytes, SketchFrameKind::kStructuredF0, &version);
  if (!payload.ok()) return payload.status();
  wire::ByteReader r(payload.value());
  StructuredF0::Parts parts = StructuredF0::EmptyParts();
  Status status = wire::DecodeStructuredParams(r, &parts.params);
  if (!status.ok()) return status;
  const StructuredF0Params& params = parts.params;
  const uint64_t thresh = StructuredF0Thresh(params);
  const int rows = StructuredF0Rows(params);
  bool elided = false;
  status = ReadHashMode(r, &elided);
  if (!status.ok()) return status;
  std::optional<StructuredF0RowSampler> sampler;
  if (elided) {
    // The replay samples one Toeplitz hash per row, whose columns expand
    // to n x 3n bits, from the untrusted parameter block alone; bound n
    // before the first sample (the encoder honors the same cap by
    // embedding).
    if (static_cast<uint64_t>(params.n) >
        wire::kMaxElidedStructuredUniverseBits) {
      return Status::ParseError(
          "elided structured frame exceeds the universe-bits cap");
    }
    sampler.emplace(params);
  }
  status = ReadRowCount(r, version, rows, "structured rows");

  const bool minimum = params.algorithm == StructuredF0Algorithm::kMinimum;
  for (int i = 0; status.ok() && i < rows; ++i) {
    if (minimum) {
      std::optional<MinimumSketchRow> sampled;
      std::optional<MinimumSketchRow> row;
      if (elided) sampled = sampler->NextMinimumRow();
      status = wire::DecodeMinimumPayload(
          r, version, sampled ? &sampled->hash() : nullptr, &row,
          /*wide_universe=*/true);
      if (!status.ok()) break;
      status = CheckRowFits(row->hash().n() == params.n &&
                                row->output_bits() == 3 * params.n &&
                                row->thresh() == thresh,
                            "structured minimum");
      if (status.ok()) parts.minimum.push_back(*std::move(row));
    } else {
      std::optional<StructuredBucketRow> sampled;
      std::optional<StructuredBucketRow> row;
      if (elided) sampled = sampler->NextBucketingRow();
      status = wire::DecodeStructuredBucketPayload(
          r, version, sampled ? &sampled->hash() : nullptr, &row);
      if (!status.ok()) break;
      status = CheckRowFits(row->n() == params.n && row->thresh() == thresh,
                            "structured bucketing");
      if (status.ok()) parts.bucketing.push_back(*std::move(row));
    }
  }
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes in F0 sketch");
  parts.hashes_canonical = elided;  // as for raw estimators
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
