/// \file wire.hpp
/// \brief Wire-level building blocks shared by the sketch codec layers.
///
/// This is the engine's *internal* serialization toolkit: byte-exact
/// little-endian primitives (ByteWriter / ByteReader), the framed header
/// (WrapFrame / UnwrapFrame), and the per-row payload codecs
/// (docs/wire_format.md). The sketch encoder and the two whole-sketch
/// decoders (`SketchCodec`, sketch_codec.hpp) are its one sketch-level
/// consumer; the serve protocol (src/net) reuses the primitives, the
/// frame header and the parameter blocks.
///
/// Every encoder writes version 2: Toeplitz hashes as diagonal seeds,
/// seed-elided hash state for whole estimators, and delta+varint coded
/// element/value sets. Version 1 is read-only: the decoders take the
/// frame's version and must keep accepting the exact bytes the original
/// v1 codec wrote (the golden-file compat tests pin this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "engine/sketch_codec.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace wire {

/// Frame header size in bytes (magic, version, kind, reserved, length,
/// checksum); see docs/wire_format.md.
inline constexpr size_t kHeaderBytes = 24;

/// Elided estimator frames make the decoder *sample* thresh hashes of s
/// coefficients per row from the parameter block alone, so the product is
/// capped: encoders fall back to embedding past it, and decoders reject
/// elided frames beyond it instead of allocating gigabytes on behalf of a
/// 100-byte crafted file. 2^24 coefficients (128 MiB transient per row)
/// is orders of magnitude above any real configuration (default: 600).
inline constexpr uint64_t kMaxElidedHashCoeffs = 1ull << 24;

/// Elided *structured* frames make the decoder sample one Toeplitz hash of
/// up to n x 3n dense bits per row from the parameter block alone, so n is
/// capped: encoders fall back to embedding past it (then the file pays for
/// the hash bytes proportionally), and decoders reject elided frames
/// beyond it. 4096 universe bits (~6 MiB transient per KMV row) is far
/// above any real structured stream (DNF benchmarks run tens of
/// variables).
inline constexpr uint64_t kMaxElidedStructuredUniverseBits = 4096;

/// FNV-1a-64 over `bytes` — the frame payload checksum.
uint64_t Fnv1a64(std::string_view bytes);

// ---- primitive little-endian encoding -------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Uint(v, 2); }
  void U32(uint32_t v) { Uint(v, 4); }
  void U64(uint64_t v) { Uint(v, 8); }
  void F64(double v);

  /// Unsigned integer in exactly `bytes` little-endian bytes (v2 packed
  /// field coefficients). Requires v < 2^(8*bytes).
  void UintN(uint64_t v, int bytes) { Uint(v, bytes); }

  /// LEB128 varint: 7 value bits per byte, low group first, high bit set
  /// on every byte but the last. Minimal-length by construction.
  void Varint(uint64_t v);

  /// Bit-string field of a bit count implied by context: ceil(size/8)
  /// bytes, MSB-first within each byte (matching the BitVec string
  /// order); pad bits are zero.
  void RawBits(const BitVec& v);

  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  void Uint(uint64_t v, int bytes);

  std::string out_;
};

/// Bounds-checked reads; every accessor returns false (without advancing
/// past the end) on truncation so decoders can fail with a Status instead
/// of walking off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v) { return Uint(v, 2); }
  bool U32(uint32_t* v) { return Uint(v, 4); }
  bool U64(uint64_t* v) { return Uint(v, 8); }
  bool F64(double* v);
  bool UintN(uint64_t* v, int bytes) { return Uint(v, bytes); }

  /// Counterpart of ByteWriter::Varint. Rejects non-minimal encodings
  /// (redundant trailing zero groups) and values beyond 64 bits, so every
  /// uint64 has exactly one wire representation.
  bool Varint(uint64_t* v);

  /// A count/width field: fixed u32 in v1, varint in v2.
  bool Count(uint16_t version, uint64_t* v);

  /// v1 bit-string field: uint32 bit count, then the RawBits bytes;
  /// rejects nonzero pad bits so the encoding of a given vector is unique.
  bool BitVecField(BitVec* v);

  /// Counterpart of ByteWriter::RawBits for a known bit count; rejects
  /// nonzero pad bits.
  bool RawBits(int nbits, BitVec* v);

  size_t Remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  bool Uint(T* v, int bytes) {
    if (pos_ + static_cast<size_t>(bytes) > data_.size()) return false;
    uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += bytes;
    *v = static_cast<T>(out);
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status Truncated(const char* what);

// ---- frame ----------------------------------------------------------------

/// Wraps `payload` in the 24-byte header carrying `version`.
std::string WrapFrame(SketchFrameKind kind, uint16_t version,
                      std::string payload);

/// WrapFrame for kind bytes outside SketchFrameKind — the serve protocol
/// (src/net) frames its messages with the same magic/header/checksum
/// machinery but its own kind namespace (docs/serve.md).
std::string WrapFrameRaw(uint8_t kind, uint16_t version, std::string payload);

/// A parsed 24-byte frame header. Meaning of `version` and `kind` is the
/// consumer's: sketch frames use SketchCodec versions + SketchFrameKind,
/// net frames the protocol version + net::FrameType.
struct FrameHeader {
  uint16_t version = 0;
  uint8_t kind = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
};

/// Parses the header at the front of `bytes` (>= kHeaderBytes of a byte
/// stream; trailing data is ignored). Validates magic and the zero
/// reserved byte only — version/kind policy belongs to the caller. The
/// incremental entry point for stream consumers that must know
/// payload_size before the payload has arrived.
Status ParseFrameHeader(std::string_view bytes, FrameHeader* out);

/// Validates `payload` (exactly header.payload_size bytes) against the
/// header's FNV-1a-64 checksum.
Status CheckFramePayload(const FrameHeader& header, std::string_view payload);

/// Validates header, kind, length, and checksum; accepts any version the
/// library reads (v1 and v2) and reports which via `version`.
Result<std::string_view> UnwrapFrame(std::string_view bytes,
                                     SketchFrameKind want, uint16_t* version);

/// The whole-sketch kind `blob` claims: kStructuredF0 when its kind byte
/// says so, kF0Estimator for anything else, so a short, garbled or
/// retired-kind blob gets UnwrapFrame's canonical error from the raw
/// decoder. O(1); nothing is validated here.
SketchFrameKind ClaimedSketchKind(std::string_view blob);

// ---- payload codecs -------------------------------------------------------
//
// Encoders write exactly one canonical v2 byte string per state; decoders
// validate every field domain, and their `version` selects the layout
// being read. The row codecs take a hash context: when an estimator frame
// elides hash state ("canonical hashes", mode byte 1), the caller
// re-derives each row's hashes via F0RowSampler and passes them in;
// `embed_hash == false` on the encode side skips them symmetrically.

void EncodeAffineHash(ByteWriter& w, const AffineHash& h);
Status DecodeAffineHash(ByteReader& r, uint16_t version,
                        std::optional<AffineHash>* out);

void EncodeParams(ByteWriter& w, const F0Params& p);
Status DecodeParams(ByteReader& r, F0Params* out);

void EncodeBucketingPayload(ByteWriter& w, const BucketingSketchRow& row,
                            bool embed_hash);
Status DecodeBucketingPayload(ByteReader& r, uint16_t version,
                              const AffineHash* elided_hash,
                              std::optional<BucketingSketchRow>* out);

/// `wide_universe` permits hash input widths beyond 64 bits — valid only
/// in structured-frame context, where KMV rows live on the BitVec universe
/// and are fed through AddHashed/Eval (never the word-stream Add). Word
/// frames keep rejecting wide hashes, whose Add() would be undefined.
void EncodeMinimumPayload(ByteWriter& w, const MinimumSketchRow& row,
                          bool embed_hash);
Status DecodeMinimumPayload(ByteReader& r, uint16_t version,
                            const AffineHash* elided_hash,
                            std::optional<MinimumSketchRow>* out,
                            bool wide_universe = false);

void EncodeEstimationPayload(ByteWriter& w, const EstimationSketchRow& row,
                             bool embed_hash);
/// `field` supplies GF(2^w) arithmetic for the decoded hashes and must
/// outlive the row. `elided`, when non-null, supplies the replayed hashes
/// and is moved from (the caller's replay row is a temporary anyway).
/// Rows without hashes are rejected: estimator rows always carry them.
Status DecodeEstimationPayload(ByteReader& r, uint16_t version,
                               const Gf2Field& field,
                               std::vector<PolynomialHash>* elided,
                               std::optional<EstimationSketchRow>* out);

void EncodeFmPayload(ByteWriter& w, const FlajoletMartinRow& row,
                     bool embed_hash);
Status DecodeFmPayload(ByteReader& r, uint16_t version,
                       const AffineHash* elided_hash,
                       std::optional<FlajoletMartinRow>* out);

// ---- structured-sketch payloads (v2 only; docs/wire_format.md) ------------

void EncodeStructuredParams(ByteWriter& w, const StructuredF0Params& p);
Status DecodeStructuredParams(ByteReader& r, StructuredF0Params* out);

void EncodeStructuredBucketPayload(ByteWriter& w,
                                   const StructuredBucketRow& row,
                                   bool embed_hash);
Status DecodeStructuredBucketPayload(ByteReader& r, uint16_t version,
                                     const AffineHash* elided_hash,
                                     std::optional<StructuredBucketRow>* out);

/// True iff every hash in `est` matches what F0RowSampler derives from
/// `est.params()` — the eligibility test for the v2 seed-elided estimator
/// encoding. Representation-bit counts are compared too, so SpaceBits()
/// survives the round trip exactly. The slow path behind the
/// hashes_canonical attestation (used only when the flag is unset).
bool HashesMatchCanonicalSample(const F0Estimator& est);
/// The structured twin, against StructuredF0RowSampler.
bool HashesMatchCanonicalSample(const StructuredF0& sketch);

}  // namespace wire
}  // namespace mcf0
