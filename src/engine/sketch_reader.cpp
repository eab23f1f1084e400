#include "engine/sketch_reader.hpp"

#include <limits>
#include <string>
#include <utility>

#include "engine/sketch_codec.hpp"
#include "engine/wire.hpp"

namespace mcf0 {

SketchReader::SketchReader() = default;
SketchReader::SketchReader(SketchReader&&) noexcept = default;
SketchReader& SketchReader::operator=(SketchReader&&) noexcept = default;
SketchReader::~SketchReader() = default;

Result<SketchReader> SketchReader::Open(std::string_view blob) {
  // The cursor walks raw estimator frames and (v2) structured frames
  // through one entry point.
  const SketchFrameKind want = wire::ClaimedSketchKind(blob);
  uint16_t version = 0;
  auto payload = wire::UnwrapFrame(blob, want, &version);
  if (!payload.ok()) return payload.status();
  SketchReader sr;
  sr.frame_kind_ = want;
  sr.version_ = version;
  sr.reader_ = std::make_unique<wire::ByteReader>(payload.value());
  wire::ByteReader& r = *sr.reader_;

  if (want == SketchFrameKind::kStructuredF0) {
    if (version != SketchCodec::kFormatV2) {
      return Status::NotSupported(
          "structured sketch frames require format v2");
    }
    Status status = wire::DecodeStructuredParams(r, &sr.structured_params_);
    if (!status.ok()) return status;
    sr.expected_thresh_ = StructuredF0Thresh(sr.structured_params_);
    sr.expected_rows_ = StructuredF0Rows(sr.structured_params_);

    uint8_t hash_mode = 0;
    if (!r.U8(&hash_mode)) return wire::Truncated("sketch hash mode");
    if (hash_mode > 1) {
      return Status::ParseError("bad sketch hash mode " +
                                std::to_string(hash_mode));
    }
    sr.elided_ = hash_mode == 1;
    if (sr.elided_) {
      // The replay densifies one Toeplitz hash of up to n x 3n bits per
      // row from the untrusted parameter block alone; bound n before the
      // first sample (the encoder honors the same cap by embedding).
      if (static_cast<uint64_t>(sr.structured_params_.n) >
          wire::kMaxElidedStructuredUniverseBits) {
        return Status::ParseError(
            "elided structured frame exceeds the universe-bits cap");
      }
      sr.structured_sampler_.emplace(sr.structured_params_);
    }
    uint64_t count = 0;
    if (!r.Varint(&count)) return wire::Truncated("structured rows");
    if (count != static_cast<uint64_t>(sr.expected_rows_)) {
      return Status::ParseError(
          "structured rows: row count disagrees with parameters");
    }
    // Every row occupies at least one payload byte.
    if (count > r.Remaining()) return wire::Truncated("structured rows");
    sr.num_units_ = sr.expected_rows_;
    return sr;
  }

  Status status = wire::DecodeParams(r, &sr.params_);
  if (!status.ok()) return status;
  sr.expected_thresh_ = F0Thresh(sr.params_);
  sr.expected_rows_ = F0Rows(sr.params_);
  sr.expected_s_ = F0IndependenceS(sr.params_);

  const bool v1 = version == SketchCodec::kFormatV1;
  if (!v1) {
    uint8_t hash_mode = 0;
    if (!r.U8(&hash_mode)) return wire::Truncated("sketch hash mode");
    if (hash_mode > 1) {
      return Status::ParseError("bad sketch hash mode " +
                                std::to_string(hash_mode));
    }
    sr.elided_ = hash_mode == 1;
    if (sr.elided_) sr.sampler_.emplace(sr.params_);
  }

  auto read_count = [&](const char* what) -> Status {
    uint64_t count = 0;
    if (!r.Count(version, &count)) return wire::Truncated(what);
    if (count != static_cast<uint64_t>(sr.expected_rows_)) {
      return Status::ParseError(std::string(what) +
                                ": row count disagrees with parameters");
    }
    // Every row occupies at least one payload byte, so a count beyond the
    // remaining bytes is hostile; rejecting here keeps decode loops from
    // over-allocating for a tiny crafted file.
    if (count > r.Remaining()) return wire::Truncated(what);
    return Status::Ok();
  };

  switch (sr.params_.algorithm) {
    case F0Algorithm::kBucketing:
      status = read_count("bucketing rows");
      if (!status.ok()) return status;
      sr.num_units_ = sr.expected_rows_;
      break;
    case F0Algorithm::kMinimum:
      status = read_count("minimum rows");
      if (!status.ok()) return status;
      sr.num_units_ = sr.expected_rows_;
      break;
    case F0Algorithm::kEstimation: {
      uint64_t degree = 0;
      uint64_t modulus_low = 0;
      if (!r.Count(version, &degree) || !r.U64(&modulus_low)) {
        return wire::Truncated("estimation field");
      }
      if (degree != static_cast<uint64_t>(sr.params_.n)) {
        return Status::ParseError("estimation field degree differs from n");
      }
      sr.field_ = std::make_unique<Gf2Field>(sr.params_.n);
      if (sr.field_->modulus_low() != modulus_low) {
        // The modulus search is deterministic per degree; a mismatch means
        // the blob came from an incompatible implementation.
        return Status::NotSupported(
            "estimation field modulus differs from this build's");
      }
      status = read_count("estimation rows");
      if (!status.ok()) return status;
      // Estimation frames yield two units per row; a crafted rows_override
      // near INT_MAX must not overflow the doubling (UB), so bound it —
      // no real sketch comes within orders of magnitude of this.
      if (sr.expected_rows_ > std::numeric_limits<int>::max() / 2) {
        return Status::ParseError("estimation row count out of range");
      }
      // The canonical sampler materializes thresh polynomial hashes of s
      // coefficients per row, driven purely by the (untrusted) parameter
      // block — so before any elided row is sampled, pin thresh against
      // what a well-formed frame must carry anyway (at least one *bit*
      // per cell, now that v2 packs the cell block) and thresh * s
      // against the replay allocation cap the encoder honors. This keeps
      // a tiny crafted file from forcing a huge sampling allocation or an
      // int-narrowing abort ("decoding never aborts on bad input").
      if (sr.elided_ &&
          (sr.expected_thresh_ > 8 * r.Remaining() ||
           sr.expected_thresh_ >
               static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
           sr.expected_thresh_ * static_cast<uint64_t>(sr.expected_s_) >
               wire::kMaxElidedHashCoeffs)) {
        return wire::Truncated("estimation rows");
      }
      sr.num_units_ = 2 * sr.expected_rows_;
      break;
    }
  }
  return sr;
}

Result<SketchReader::Unit> SketchReader::Next() {
  MCF0_CHECK(!AtEnd());
  wire::ByteReader& r = *reader_;
  Status status;
  std::optional<Unit> unit;
  if (structured()) {
    if (structured_params_.algorithm == StructuredF0Algorithm::kMinimum) {
      std::optional<MinimumSketchRow> sampled;
      if (elided_) sampled = structured_sampler_->NextMinimumRow();
      std::optional<MinimumSketchRow> row;
      status = wire::DecodeMinimumPayload(
          r, version_, sampled ? &sampled->hash() : nullptr, &row,
          /*wide_universe=*/true);
      if (!status.ok()) return status;
      if (row->hash().n() != structured_params_.n ||
          row->output_bits() != 3 * structured_params_.n ||
          row->thresh() != expected_thresh_) {
        return Status::ParseError(
            "structured minimum row disagrees with sketch parameters");
      }
      unit.emplace(*std::move(row));
    } else {
      std::optional<StructuredBucketRow> sampled;
      if (elided_) sampled = structured_sampler_->NextBucketingRow();
      std::optional<StructuredBucketRow> row;
      status = wire::DecodeStructuredBucketPayload(
          r, version_, sampled ? &sampled->hash() : nullptr, &row);
      if (!status.ok()) return status;
      if (row->n() != structured_params_.n ||
          row->thresh() != expected_thresh_) {
        return Status::ParseError(
            "structured bucketing row disagrees with sketch parameters");
      }
      unit.emplace(*std::move(row));
    }
    ++units_read_;
    if (AtEnd() && !reader_->Done()) {
      return Status::ParseError("trailing bytes in F0 sketch");
    }
    return *std::move(unit);
  }
  switch (params_.algorithm) {
    case F0Algorithm::kBucketing: {
      std::optional<BucketingSketchRow> sampled;
      if (elided_) sampled = sampler_->NextBucketingRow();
      std::optional<BucketingSketchRow> row;
      status = wire::DecodeBucketingPayload(
          r, version_, sampled ? &sampled->hash() : nullptr, &row);
      if (!status.ok()) return status;
      if (row->hash().n() != params_.n || row->thresh() != expected_thresh_) {
        return Status::ParseError(
            "bucketing row disagrees with sketch parameters");
      }
      unit.emplace(*std::move(row));
      break;
    }
    case F0Algorithm::kMinimum: {
      std::optional<MinimumSketchRow> sampled;
      if (elided_) sampled = sampler_->NextMinimumRow();
      std::optional<MinimumSketchRow> row;
      status = wire::DecodeMinimumPayload(
          r, version_, sampled ? &sampled->hash() : nullptr, &row);
      if (!status.ok()) return status;
      if (row->hash().n() != params_.n ||
          row->output_bits() != 3 * params_.n ||
          row->thresh() != expected_thresh_) {
        return Status::ParseError(
            "minimum row disagrees with sketch parameters");
      }
      unit.emplace(*std::move(row));
      break;
    }
    case F0Algorithm::kEstimation: {
      if (units_read_ < expected_rows_) {
        std::optional<std::vector<PolynomialHash>> replayed;
        if (elided_) {
          // The replay pair is a temporary; hand its hashes to the decoded
          // row instead of copying thresh * s coefficients. (Its FM half
          // is re-derived later by the FM-block replay sampler.)
          replayed = std::move(sampler_->NextEstimationPair(field_.get())
                                   .first)
                         .TakeHashes();
        }
        std::optional<EstimationSketchRow> row;
        status = wire::DecodeEstimationPayload(
            r, version_, *field_, replayed ? &*replayed : nullptr, &row);
        if (!status.ok()) return status;
        // What the sampling constructor would have built: thresh cells,
        // each hash drawn with s coefficients.
        bool consistent = row->cells().size() == expected_thresh_;
        for (const PolynomialHash& h : row->hashes()) {
          consistent = consistent && h.s() == expected_s_;
        }
        if (!consistent) {
          return Status::ParseError(
              "estimation row disagrees with sketch parameters");
        }
        unit.emplace(*std::move(row));
        break;
      }
      if (!fm_count_read_) {
        uint64_t count = 0;
        if (!r.Count(version_, &count)) return wire::Truncated("FM rows");
        if (count != static_cast<uint64_t>(expected_rows_)) {
          return Status::ParseError(
              "FM rows: row count disagrees with parameters");
        }
        if (count > r.Remaining()) return wire::Truncated("FM rows");
        fm_count_read_ = true;
        if (elided_) fm_replay_sampler_.emplace(params_);
      }
      std::optional<FlajoletMartinRow> sampled_fm;
      const AffineHash* elided_hash = nullptr;
      if (elided_) {
        // Replay draw i and keep only its FM half; the Estimation half is
        // sampled into a temporary and dropped, so resident hash state
        // stays one row regardless of the frame's row count.
        sampled_fm = fm_replay_sampler_->NextEstimationPair(field_.get())
                         .second;
        elided_hash = &sampled_fm->hash();
      }
      std::optional<FlajoletMartinRow> row;
      status = wire::DecodeFmPayload(r, version_, elided_hash, &row);
      if (!status.ok()) return status;
      if (row->hash().n() != params_.n) {
        return Status::ParseError("FM row disagrees with sketch parameters");
      }
      unit.emplace(*std::move(row));
      break;
    }
  }
  ++units_read_;
  if (AtEnd() && !reader_->Done()) {
    return Status::ParseError("trailing bytes in F0 sketch");
  }
  return *std::move(unit);
}

}  // namespace mcf0
