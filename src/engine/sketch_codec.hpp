/// \file sketch_codec.hpp
/// \brief Versioned binary wire format for F0 sketch state.
///
/// The paper's composability result (§4) is only useful in practice if a
/// sketch can leave the process that built it: a mapper serializes its
/// local sketch, a reducer deserializes and merges (sketch_merge.hpp).
/// `SketchCodec` defines that interchange format — little-endian, framed,
/// checksummed, and versioned (docs/wire_format.md is the normative spec):
///
///   bytes 0-3   magic "MCF0"
///   bytes 4-5   format version (uint16), 1 or 2
///   byte  6     frame kind (SketchFrameKind)
///   byte  7     reserved, 0
///   bytes 8-15  payload length in bytes (uint64)
///   bytes 16-23 FNV-1a-64 checksum of the payload (uint64)
///   bytes 24-   payload
///
/// Encoding always writes version 2. Version 1 serialized hash-function
/// state in full (dense matrix rows); version 2 keeps decoded sketches
/// self-contained while shrinking the bytes: Toeplitz hashes ship their
/// n + m - 1 bit diagonal seed instead of m dense rows, polynomial hashes
/// pack their coefficient lists to the field width, sorted element/value
/// sets are delta + varint coded (KMV values as n-bit preimages where
/// they exist), and a whole-estimator frame whose hashes match what
/// F0RowSampler derives from its own parameters elides hash state
/// entirely. Decoding dispatches on the header's version byte, so v1
/// files stay readable forever.
///
/// Decoding never aborts on bad input: truncated buffers, corrupt bytes,
/// bad magic/version/kind, checksum mismatches, and out-of-domain field
/// values all surface as a non-OK `Status`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {

/// Frame kind byte: which whole sketch a serialized blob holds. Kind 5
/// (structured sketches, §5 streams) exists only at format v2 — v1
/// predates it. Kinds 1-4 and 6 once held single sketch rows; they are
/// retired, never reassigned, and UnwrapFrame rejects them like any
/// other kind the caller did not ask for.
enum class SketchFrameKind : uint8_t {
  kF0Estimator = 0,
  kStructuredF0 = 5,
};

/// Stateless encode/decode for both whole-sketch types. Encodings are
/// canonical: two sketches with equal state produce byte-identical blobs
/// (unordered containers are sorted on the way out), so blob equality is
/// state equality — the merge-algebra tests rely on this.
class SketchCodec {
 public:
  /// v1: dense hash state, fixed-width integers. Read-only: decoded,
  /// never written.
  static constexpr uint16_t kFormatV1 = 1;
  /// v2: seed-compressed hashes, delta + varint coded sets. The only
  /// version Encode writes.
  static constexpr uint16_t kFormatV2 = 2;
  /// Kept only for bench/mcf0_bench/layers.cpp's MergeSketchStreams call.
  static constexpr uint16_t kDefaultFormatVersion = kFormatV2;

  static std::string Encode(const F0Estimator& est);
  static std::string Encode(const StructuredF0& sketch);

  static Result<F0Estimator> DecodeF0Estimator(std::string_view bytes);
  static Result<StructuredF0> DecodeStructuredF0(std::string_view bytes);

  /// The wire format version a frame claims, from its whole 24-byte
  /// header (magic and reserved byte checked; payload untouched — O(1),
  /// unlike a decode).
  static Result<uint16_t> PeekFormatVersion(std::string_view bytes);
};

/// One owning handle over either sketch kind — the single surface the
/// merge/query layers and the CLI dispatch through, so raw element
/// streams (§3) and structured set streams (§5) get identical durability
/// treatment. Decode() dispatches on the frame-kind byte; every accessor
/// below forwards to the corresponding member of the held sketch.
class SketchVariant {
 public:
  explicit SketchVariant(F0Estimator est) : sketch_(std::move(est)) {}
  explicit SketchVariant(StructuredF0 sketch) : sketch_(std::move(sketch)) {}

  /// Decodes a whole-sketch frame of either kind (raw F0Estimator or
  /// StructuredF0); any other kind byte is rejected.
  static Result<SketchVariant> Decode(std::string_view bytes);

  bool structured() const {
    return std::holds_alternative<StructuredF0>(sketch_);
  }
  SketchFrameKind kind() const {
    return structured() ? SketchFrameKind::kStructuredF0
                        : SketchFrameKind::kF0Estimator;
  }

  double Estimate() const;
  size_t SpaceBits() const;
  bool hashes_canonical() const;
  std::string Encode() const;

  /// The held sketch; the kind must match (checked).
  const F0Estimator& raw() const { return std::get<F0Estimator>(sketch_); }
  F0Estimator& raw() { return std::get<F0Estimator>(sketch_); }
  const StructuredF0& structured_sketch() const {
    return std::get<StructuredF0>(sketch_);
  }
  StructuredF0& structured_sketch() {
    return std::get<StructuredF0>(sketch_);
  }

 private:
  std::variant<F0Estimator, StructuredF0> sketch_;
};

}  // namespace mcf0
