#include "engine/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "gf2/bitvec.hpp"
#include "gf2/gf2_matrix.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"

namespace mcf0 {
namespace wire {
namespace {

constexpr char kMagic[4] = {'M', 'C', 'F', '0'};

/// Largest element of the n-bit word universe.
uint64_t UniverseMax(int n) {
  return n == 64 ? ~0ull : ((1ull << n) - 1);
}

/// Writes `set` (strictly ascending) as varint(first), then
/// varint(gap - 1) per successor — the v2 delta coding for sorted word
/// sets. Zero gaps are unrepresentable, so duplicates cannot be encoded.
void EncodeAscendingU64Set(ByteWriter& w, const std::vector<uint64_t>& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    w.Varint(i == 0 ? set[0] : set[i] - set[i - 1] - 1);
  }
}

/// Counterpart of EncodeAscendingU64Set: `count` values, all <= `max`.
/// Overflow and out-of-range sums are rejected with their own message,
/// never wrapped and never misreported as truncation (`what` names the
/// field for both diagnostics).
Status DecodeAscendingU64Set(ByteReader& r, uint64_t count, uint64_t max,
                             const char* what, std::vector<uint64_t>* out) {
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    if (!r.Varint(&delta)) return Truncated(what);
    const bool in_range =
        i == 0 ? delta <= max : prev < max && delta <= max - prev - 1;
    if (!in_range) {
      return Status::ParseError(std::string(what) +
                                ": delta-coded set element out of range");
    }
    prev = i == 0 ? delta : prev + delta + 1;
    out->push_back(prev);
  }
  return Status::Ok();
}

/// Inverts a word-universe hash (n <= 64) on many values: the canonical
/// preimage of a value y is the x with h(x) = y whose free variables are
/// zero. Powers the v2 preimage coding of KMV value sets: a Minimum row's
/// values are hash outputs, so storing one n-bit preimage per value beats
/// storing the m = 3n bit value — the decoder just re-hashes.
///
/// Construction reads A's columns (AffineHash::Columns: seed windows for
/// a Toeplitz hash, no dense matrix) and reduces them left to right into
/// a fully reduced basis: column j becomes a pivot iff it is independent
/// of columns < j — the pivot columns of A's reduced row echelon form, so
/// "free variables zero" means the same x as ever — and every pivot bit
/// is set in its own basis vector only. A value in the column space is
/// then the sum of the basis vectors whose pivot bits it has, so its
/// preimage is read straight off those bits, branch-free.
class PreimageSolver {
 public:
  explicit PreimageSolver(const AffineHash& h)
      : h_(h), width_(static_cast<size_t>(h.OutputWords())) {
    const size_t n = static_cast<size_t>(h.n());
    MCF0_CHECK(n <= 64);
    std::vector<uint64_t> columns = h.Columns();
    for (size_t j = 0; j < n; ++j) {
      uint64_t* column = columns.data() + j * width_;
      uint64_t combo = 1ull << (63 - j);  // which pivot columns sum to it
      for (size_t k = 0; k < pivots_.size(); ++k) {
        if (((column[pivots_[k].word] >> pivots_[k].shift) & 1) != 0) {
          for (size_t w = 0; w < width_; ++w) {
            column[w] ^= basis_[k * width_ + w];
          }
          combo ^= pivots_[k].combo;
        }
      }
      const uint64_t* lead = std::find_if(
          column, column + width_, [](uint64_t w) { return w != 0; });
      if (lead == column + width_) continue;  // dependent on earlier columns
      const Pivot pivot{static_cast<size_t>(lead - column),
                        63 - std::countl_zero(*lead), combo};
      // Clear the new pivot bit from the earlier basis vectors.
      for (size_t k = 0; k < pivots_.size(); ++k) {
        if (((basis_[k * width_ + pivot.word] >> pivot.shift) & 1) != 0) {
          for (size_t w = 0; w < width_; ++w) {
            basis_[k * width_ + w] ^= column[w];
          }
          pivots_[k].combo ^= combo;
        }
      }
      pivots_.push_back(pivot);
      basis_.insert(basis_.end(), column, column + width_);
    }
  }

  /// The canonical preimage of `value` (OutputWords() words, BitVec
  /// layout) as Eval64 reads it (the n-bit big-endian integer), when
  /// `value` has one; some other x otherwise, so a caller that does not
  /// know `value` to be a hash output checks h(x) == value. Deterministic,
  /// so re-encoding a decoded row reproduces the exact preimage bytes.
  uint64_t Solve(std::span<const uint64_t> value) const {
    uint64_t x = 0;
    for (const Pivot& p : pivots_) {
      const uint64_t bit =
          ((value[p.word] ^ h_.b().words()[p.word]) >> p.shift) & 1;
      x ^= p.combo & (0 - bit);
    }
    return h_.n() == 64 ? x : x >> (64 - h_.n());
  }

 private:
  struct Pivot {
    size_t word;     // the pivot bit's word in a column
    int shift;       // the pivot bit's position within that word
    uint64_t combo;  // pivot columns (bit 63 - j for column j) summing to it
  };

  const AffineHash& h_;
  size_t width_;
  std::vector<Pivot> pivots_;
  std::vector<uint64_t> basis_;  // pivots_.size() reduced columns
};

/// The sorted canonical preimages of every KMV value, or nullopt if any
/// value has none (then the explicit-value fallback encoding is used).
std::optional<std::vector<uint64_t>> KmvPreimages(const MinimumSketchRow& row) {
  if (row.hash().n() > 64) return std::nullopt;
  const PreimageSolver solver(row.hash());
  const KmvValues values = row.values();
  std::vector<uint64_t> preimages;
  preimages.reserve(values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    preimages.push_back(solver.Solve(values.Words(k)));
  }
  // Values inserted through AddHashed (the §4 and §5 protocols) may have
  // no preimage: re-hash every candidate in one batch and compare.
  std::vector<uint64_t> hashed(values.words().size());
  row.hash().EvalBatch(preimages, hashed);
  if (!std::ranges::equal(hashed, values.words())) return std::nullopt;
  std::sort(preimages.begin(), preimages.end());
  return preimages;
}

/// The hash of a word-universe sketch row (Bucketing / FM): square, n <= 64.
Status DecodeSquareHash(ByteReader& r, uint16_t version, const char* what,
                        int max_n, std::optional<AffineHash>* out) {
  Status status = DecodeAffineHash(r, version, out);
  if (!status.ok()) return status;
  const AffineHash& h = out->value();
  if (h.n() != h.m() || h.n() > max_n) {
    return Status::ParseError(std::string(what) +
                              ": hash must be square with n <= 64");
  }
  return Status::Ok();
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- ByteWriter -----------------------------------------------------------

void ByteWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::Varint(uint64_t v) {
  while (v >= 0x80) {
    U8(static_cast<uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  U8(static_cast<uint8_t>(v));
}

void ByteWriter::RawBits(const BitVec& v) {
  uint8_t byte = 0;
  for (int i = 0; i < v.size(); ++i) {
    byte = static_cast<uint8_t>((byte << 1) | (v.Get(i) ? 1 : 0));
    if ((i & 7) == 7) {
      U8(byte);
      byte = 0;
    }
  }
  if (v.size() & 7) U8(static_cast<uint8_t>(byte << (8 - (v.size() & 7))));
}

void ByteWriter::Uint(uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// ---- ByteReader -----------------------------------------------------------

bool ByteReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool ByteReader::F64(double* v) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::Varint(uint64_t* v) {
  const size_t start = pos_;
  uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    uint8_t byte = 0;
    if (!U8(&byte)) {
      pos_ = start;
      return false;
    }
    const uint64_t group = byte & 0x7f;
    // The 10th byte holds bits 63..70; anything above bit 63 overflows.
    if (i == 9 && group > 1) {
      pos_ = start;
      return false;
    }
    out |= group << (7 * i);
    if ((byte & 0x80) == 0) {
      // Minimal form: a multi-byte encoding must not end in a zero group.
      if (i > 0 && group == 0) {
        pos_ = start;
        return false;
      }
      *v = out;
      return true;
    }
  }
  pos_ = start;
  return false;  // continuation bit set on the 10th byte
}

bool ByteReader::Count(uint16_t version, uint64_t* v) {
  if (version == SketchCodec::kFormatV1) {
    uint32_t v32 = 0;
    if (!U32(&v32)) return false;
    *v = v32;
    return true;
  }
  return Varint(v);
}

bool ByteReader::BitVecField(BitVec* v) {
  uint32_t size = 0;
  if (!U32(&size)) return false;
  if (size > 8 * Remaining()) return false;
  return RawBits(static_cast<int>(size), v);
}

bool ByteReader::RawBits(int nbits, BitVec* v) {
  if (static_cast<size_t>((nbits + 7) / 8) > Remaining()) return false;
  BitVec out(nbits);
  uint8_t byte = 0;
  for (int i = 0; i < nbits; ++i) {
    if ((i & 7) == 0 && !U8(&byte)) return false;
    if ((byte >> (7 - (i & 7))) & 1) out.Set(i, true);
  }
  if ((nbits & 7) != 0 && (byte & ((1u << (8 - (nbits & 7))) - 1)) != 0) {
    return false;  // nonzero pad bits: not a canonical encoding
  }
  *v = std::move(out);
  return true;
}

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated sketch data in ") + what);
}

// ---- frame ----------------------------------------------------------------

std::string WrapFrame(SketchFrameKind kind, uint16_t version,
                      std::string payload) {
  return WrapFrameRaw(static_cast<uint8_t>(kind), version, std::move(payload));
}

std::string WrapFrameRaw(uint8_t kind, uint16_t version, std::string payload) {
  ByteWriter header;
  for (const char c : kMagic) header.U8(static_cast<uint8_t>(c));
  header.U16(version);
  header.U8(kind);
  header.U8(0);  // reserved
  header.U64(payload.size());
  header.U64(Fnv1a64(payload));
  return header.Take() + payload;
}

Status ParseFrameHeader(std::string_view bytes, FrameHeader* out) {
  if (bytes.size() < kHeaderBytes) return Truncated("frame header");
  ByteReader reader(bytes.substr(0, kHeaderBytes));
  for (const char expect : kMagic) {
    uint8_t got = 0;
    reader.U8(&got);
    if (got != static_cast<uint8_t>(expect)) {
      return Status::ParseError("bad magic: not an mcf0 frame");
    }
  }
  uint8_t reserved = 0;
  reader.U16(&out->version);
  reader.U8(&out->kind);
  reader.U8(&reserved);
  reader.U64(&out->payload_size);
  reader.U64(&out->checksum);
  if (reserved != 0) {
    return Status::ParseError("nonzero reserved byte in frame header");
  }
  return Status::Ok();
}

Status CheckFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_size) {
    return Status::Internal("frame payload size does not match its header");
  }
  if (Fnv1a64(payload) != header.checksum) {
    return Status::ParseError("frame payload checksum mismatch (corrupt)");
  }
  return Status::Ok();
}

Result<std::string_view> UnwrapFrame(std::string_view bytes,
                                     SketchFrameKind want, uint16_t* version) {
  FrameHeader header;
  Status status = ParseFrameHeader(bytes, &header);
  if (!status.ok()) return status;
  *version = header.version;
  if (header.version != SketchCodec::kFormatV1 &&
      header.version != SketchCodec::kFormatV2) {
    return Status::NotSupported(
        "sketch format version " + std::to_string(header.version) +
        " (this build reads " + std::to_string(SketchCodec::kFormatV1) +
        " and " + std::to_string(SketchCodec::kFormatV2) + ")");
  }
  if (header.kind != static_cast<uint8_t>(want)) {
    return Status::InvalidArgument("sketch frame kind " +
                                   std::to_string(header.kind) +
                                   " does not match the requested object");
  }
  const std::string_view payload = bytes.substr(kHeaderBytes);
  if (header.payload_size != payload.size()) {
    return header.payload_size > payload.size()
               ? Truncated("frame payload")
               : Status::ParseError("trailing bytes after frame payload");
  }
  status = CheckFramePayload(header, payload);
  if (!status.ok()) return status;
  return payload;
}

SketchFrameKind ClaimedSketchKind(std::string_view blob) {
  return blob.size() > 6 &&
                 static_cast<uint8_t>(blob[6]) ==
                     static_cast<uint8_t>(SketchFrameKind::kStructuredF0)
             ? SketchFrameKind::kStructuredF0
             : SketchFrameKind::kF0Estimator;
}

// ---- AffineHash -----------------------------------------------------------

void EncodeAffineHash(ByteWriter& w, const AffineHash& h) {
  // Toeplitz hashes ship their n + m - 1 bit diagonal seed; everything
  // else falls back to dense rows (without v1's per-row length prefixes).
  // The seed path is capped at n <= 64, m <= 4096 — far beyond any real
  // hash (word universes cap n at 64, Minimum uses m = 3n) — because a
  // seed's columns, which the preimage solver and the §5 term images
  // read, expand a small blob to n x m bits; dense encodings cost file
  // bytes proportionally, so they need no such cap.
  const bool seeded = h.kind() == AffineHashKind::kToeplitz &&
                      h.HasToeplitzMatrix() && h.n() <= 64 && h.m() <= 4096;
  w.U8(static_cast<uint8_t>(h.kind()));
  w.Varint(static_cast<uint64_t>(h.n()));
  w.Varint(static_cast<uint64_t>(h.m()));
  w.Varint(h.RepresentationBits());
  w.U8(seeded ? 1 : 0);
  w.RawBits(h.b());
  if (seeded) {
    w.RawBits(h.ToeplitzSeed());
  } else {
    for (int i = 0; i < h.m(); ++i) w.RawBits(h.Row(i));
  }
}

Status DecodeAffineHash(ByteReader& r, uint16_t version,
                        std::optional<AffineHash>* out) {
  if (version == SketchCodec::kFormatV1) {
    uint8_t kind = 0;
    uint32_t n = 0;
    uint32_t m = 0;
    uint64_t repr_bits = 0;
    if (!r.U8(&kind) || !r.U32(&n) || !r.U32(&m) || !r.U64(&repr_bits)) {
      return Truncated("hash function");
    }
    if (kind > static_cast<uint8_t>(AffineHashKind::kSparseXor)) {
      return Status::ParseError("unknown hash kind " + std::to_string(kind));
    }
    // Every matrix row costs at least its 4-byte length prefix, so more
    // claimed rows than remaining/4 is hostile. (Decode loops deliberately
    // avoid reserve(): element objects are much larger than their wire
    // encodings, so pre-reserving would let a small crafted file force a
    // huge allocation — an uncaught std::bad_alloc — before the per-element
    // reads could fail. Geometric push_back growth stays proportional to
    // bytes actually decoded.)
    if (n < 1 || m < 1 || m > r.Remaining() / 4) {
      return Status::ParseError("hash dimensions out of range");
    }
    BitVec b;
    if (!r.BitVecField(&b)) return Truncated("hash offset");
    if (b.size() != static_cast<int>(m)) {
      return Status::ParseError("hash offset length mismatch");
    }
    std::vector<BitVec> rows;
    for (uint32_t i = 0; i < m; ++i) {
      BitVec row;
      if (!r.BitVecField(&row)) return Truncated("hash matrix row");
      if (row.size() != static_cast<int>(n)) {
        return Status::ParseError("hash matrix row length mismatch");
      }
      rows.push_back(std::move(row));
    }
    out->emplace(AffineHash::FromParts(Gf2Matrix::FromRows(std::move(rows)),
                                       std::move(b),
                                       static_cast<AffineHashKind>(kind),
                                       repr_bits));
    return Status::Ok();
  }

  uint8_t kind = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t repr_bits = 0;
  uint8_t seeded = 0;
  if (!r.U8(&kind) || !r.Varint(&n) || !r.Varint(&m) || !r.Varint(&repr_bits) ||
      !r.U8(&seeded)) {
    return Truncated("hash function");
  }
  if (kind > static_cast<uint8_t>(AffineHashKind::kSparseXor)) {
    return Status::ParseError("unknown hash kind " + std::to_string(kind));
  }
  // RawBits bounds every bit-string read against the remaining bytes
  // before allocating; the cap here only keeps the int casts below safe.
  if (n < 1 || m < 1 || n > (1u << 24) || m > (1u << 24)) {
    return Status::ParseError("hash dimensions out of range");
  }
  if (seeded > 1) {
    return Status::ParseError("bad hash matrix marker " +
                              std::to_string(seeded));
  }
  if (seeded == 1 && kind != static_cast<uint8_t>(AffineHashKind::kToeplitz)) {
    return Status::ParseError("seed-coded hash must be Toeplitz");
  }
  if (seeded == 1 && (n > 64 || m > 4096)) {
    // An (n + m - 1)-bit seed's columns expand to m x n bits, a quadratic
    // amplification of a small blob; no canonical encoder emits seeds at
    // these dimensions, so reject before allocating (never bad_alloc-abort).
    return Status::ParseError("seed-coded hash dimensions out of range");
  }
  BitVec b;
  if (!r.RawBits(static_cast<int>(m), &b)) return Truncated("hash offset");
  if (seeded == 1) {
    BitVec seed;
    if (!r.RawBits(static_cast<int>(n + m - 1), &seed)) {
      return Truncated("hash Toeplitz seed");
    }
    out->emplace(AffineHash::FromToeplitzSeed(static_cast<int>(n),
                                              static_cast<int>(m), seed,
                                              std::move(b), repr_bits));
    return Status::Ok();
  }
  std::vector<BitVec> rows;
  for (uint64_t i = 0; i < m; ++i) {
    BitVec row;
    if (!r.RawBits(static_cast<int>(n), &row)) {
      return Truncated("hash matrix row");
    }
    rows.push_back(std::move(row));
  }
  out->emplace(AffineHash::FromParts(Gf2Matrix::FromRows(std::move(rows)),
                                     std::move(b),
                                     static_cast<AffineHashKind>(kind),
                                     repr_bits));
  return Status::Ok();
}

// ---- parameters -----------------------------------------------------------

void EncodeParams(ByteWriter& w, const F0Params& p) {
  w.U8(static_cast<uint8_t>(p.algorithm));
  w.U8(static_cast<uint8_t>(p.n));
  w.F64(p.eps);
  w.F64(p.delta);
  w.U64(p.seed);
  w.U64(p.thresh_override);
  w.U32(static_cast<uint32_t>(p.rows_override));
  w.U32(static_cast<uint32_t>(p.s_override));
}

Status DecodeParams(ByteReader& r, F0Params* out) {
  uint8_t algorithm = 0;
  uint8_t n = 0;
  uint32_t rows_override = 0;
  uint32_t s_override = 0;
  if (!r.U8(&algorithm) || !r.U8(&n) || !r.F64(&out->eps) ||
      !r.F64(&out->delta) || !r.U64(&out->seed) ||
      !r.U64(&out->thresh_override) || !r.U32(&rows_override) ||
      !r.U32(&s_override)) {
    return Truncated("sketch parameters");
  }
  if (algorithm > static_cast<uint8_t>(F0Algorithm::kEstimation)) {
    return Status::ParseError("unknown sketch algorithm " +
                              std::to_string(algorithm));
  }
  if (n < 1 || n > 64) return Status::ParseError("sketch n outside [1, 64]");
  if (!std::isfinite(out->eps) || out->eps <= 0) {
    return Status::ParseError("sketch eps must be positive and finite");
  }
  // When the override is zero, F0Thresh computes 96/eps^2 and casts it to
  // uint64 — UB past 2^64 — so bound eps exactly where that hazard exists
  // (no real sketch comes near eps = 1e-6: thresh would be ~10^14 values
  // per row). Files carrying an explicit override never hit the formula,
  // and rejecting them would break previously-valid v1 files.
  if (out->thresh_override == 0 && out->eps < 1e-6) {
    return Status::ParseError(
        "sketch eps below 1e-6 needs an explicit thresh override");
  }
  if (!std::isfinite(out->delta) || out->delta <= 0 || out->delta >= 1) {
    return Status::ParseError("sketch delta outside (0, 1)");
  }
  const auto int_max =
      static_cast<uint32_t>(std::numeric_limits<int>::max());
  if (rows_override > int_max || s_override > int_max) {
    return Status::ParseError("sketch row/s override out of range");
  }
  out->algorithm = static_cast<F0Algorithm>(algorithm);
  out->n = n;
  out->rows_override = static_cast<int>(rows_override);
  out->s_override = static_cast<int>(s_override);
  return Status::Ok();
}

// ---- Bucketing row --------------------------------------------------------

void EncodeBucketingPayload(ByteWriter& w, const BucketingSketchRow& row,
                            bool embed_hash) {
  if (embed_hash) EncodeAffineHash(w, row.hash());
  w.Varint(row.thresh());
  w.Varint(static_cast<uint64_t>(row.level()));
  std::vector<uint64_t> elems(row.bucket().begin(), row.bucket().end());
  std::sort(elems.begin(), elems.end());  // canonical order
  w.Varint(elems.size());
  EncodeAscendingU64Set(w, elems);
}

Status DecodeBucketingPayload(ByteReader& r, uint16_t version,
                              const AffineHash* elided_hash,
                              std::optional<BucketingSketchRow>* out) {
  const bool v1 = version == SketchCodec::kFormatV1;
  std::optional<AffineHash> h;
  if (elided_hash != nullptr) {
    h = *elided_hash;
  } else {
    Status status = DecodeSquareHash(r, version, "bucketing row", 64, &h);
    if (!status.ok()) return status;
  }
  uint64_t thresh = 0;
  uint64_t level = 0;
  uint64_t count = 0;
  if (v1) {
    uint32_t level32 = 0;
    if (!r.U64(&thresh) || !r.U32(&level32) || !r.U64(&count)) {
      return Truncated("bucketing row");
    }
    level = level32;
  } else if (!r.Varint(&thresh) || !r.Varint(&level) || !r.Varint(&count)) {
    return Truncated("bucketing row");
  }
  if (thresh < 1) return Status::ParseError("bucketing thresh must be >= 1");
  if (level > static_cast<uint64_t>(h->n())) {
    return Status::ParseError("bucketing level exceeds hash width");
  }
  if (count > r.Remaining() / (v1 ? 8 : 1)) {
    return Truncated("bucketing bucket");
  }
  std::unordered_set<uint64_t> bucket;
  if (v1) {
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t x = 0;
      if (!r.U64(&x)) return Truncated("bucketing bucket");
      bucket.insert(x);
    }
  } else {
    // Ingestion stores an element's low n bits, but files written before
    // it did hold raw 64-bit stream words (only their hash is n-bit), so
    // the full u64 range stays the bound to keep them readable — as in
    // v1, which shipped raw U64s.
    std::vector<uint64_t> elems;
    Status status =
        DecodeAscendingU64Set(r, count, ~0ull, "bucketing bucket", &elems);
    if (!status.ok()) return status;
    bucket.insert(elems.begin(), elems.end());
  }
  // No reachable state holds more than thresh elements below the deepest
  // level (Add escalates past thresh while level < n).
  if (level < static_cast<uint64_t>(h->n()) && bucket.size() > thresh) {
    return Status::ParseError("bucketing bucket exceeds thresh below level n");
  }
  out->emplace(*std::move(h), thresh, static_cast<int>(level),
               std::move(bucket));
  // The from-parts invariant: every element lies in the cell at `level`.
  // Without this, a crafted file could inflate |bucket| * 2^level estimates
  // and break "blob equality is state equality" (Merge would re-filter).
  if (!out->value().BucketInCell()) {
    return Status::ParseError(
        "bucketing element outside the cell at its level");
  }
  return Status::Ok();
}

// ---- Minimum row ----------------------------------------------------------

void EncodeMinimumPayload(ByteWriter& w, const MinimumSketchRow& row,
                          bool embed_hash) {
  if (embed_hash) EncodeAffineHash(w, row.hash());
  w.Varint(row.thresh());
  w.Varint(row.values().size());
  // Preimage coding: each m = 3n bit KMV value shrinks to the n-bit
  // element that hashes to it, delta-coded as a sorted set; the decoder
  // re-hashes. Values without preimages (inserted via AddHashed by the §4
  // and §5 protocols) fall back to explicit sorted values.
  const std::optional<std::vector<uint64_t>> preimages = KmvPreimages(row);
  w.U8(preimages.has_value() ? 1 : 0);
  if (preimages.has_value()) {
    EncodeAscendingU64Set(w, *preimages);
  } else {
    // Values are kept strictly ascending: the canonical order.
    for (const BitVec& v : row.values()) w.RawBits(v);
  }
}

Status DecodeMinimumPayload(ByteReader& r, uint16_t version,
                            const AffineHash* elided_hash,
                            std::optional<MinimumSketchRow>* out,
                            bool wide_universe) {
  const bool v1 = version == SketchCodec::kFormatV1;
  std::optional<AffineHash> h;
  if (elided_hash != nullptr) {
    h = *elided_hash;
  } else {
    Status status = DecodeAffineHash(r, version, &h);
    if (!status.ok()) return status;
  }
  if (h->n() > 64 && !wide_universe) {
    // Add() maps word elements through h, so the input side must be a
    // word universe (the output side m is unconstrained). Structured
    // frames lift the bound: their rows are BitVec-fed (AddHashed).
    return Status::ParseError("minimum row: hash input width exceeds 64");
  }
  uint64_t thresh = 0;
  uint64_t count = 0;
  if (v1 ? (!r.U64(&thresh) || !r.U64(&count))
         : (!r.Varint(&thresh) || !r.Varint(&count))) {
    return Truncated("minimum row");
  }
  if (thresh < 1) return Status::ParseError("minimum thresh must be >= 1");
  if (count > thresh) {
    return Status::ParseError("minimum row holds more values than thresh");
  }
  if (count > r.Remaining()) return Truncated("minimum values");
  if (v1) {
    out->emplace(*std::move(h), thresh);
    for (uint64_t i = 0; i < count; ++i) {
      BitVec v;
      if (!r.BitVecField(&v)) return Truncated("minimum values");
      if (v.size() != out->value().output_bits()) {
        return Status::ParseError("minimum value width mismatch");
      }
      out->value().AddHashed(v);
    }
    return Status::Ok();
  }
  uint8_t preimage_coded = 0;
  if (!r.U8(&preimage_coded)) return Truncated("minimum row");
  if (preimage_coded > 1) {
    return Status::ParseError("bad minimum value-set marker " +
                              std::to_string(preimage_coded));
  }
  if (preimage_coded == 1 && h->n() > 64) {
    // Preimages are u64 deltas; the canonical encoder never preimage-codes
    // a wide-universe (structured) row.
    return Status::ParseError("minimum preimage coding needs n <= 64");
  }
  const int n = h->n();
  out->emplace(*std::move(h), thresh);
  MinimumSketchRow& row = out->value();
  if (preimage_coded == 1) {
    std::vector<uint64_t> preimages;
    Status set_status = DecodeAscendingU64Set(r, count, UniverseMax(n),
                                              "minimum values", &preimages);
    if (!set_status.ok()) return set_status;
    // Hash once, then order the values: ascending preimages hash to
    // values in random order, so appending in value order spares the row
    // a sorted insert per value.
    const size_t width = static_cast<size_t>(row.hash().OutputWords());
    std::vector<uint64_t> hashed(preimages.size() * width);
    row.hash().EvalBatch(preimages, hashed);
    const auto value = [&](size_t i) {
      return std::span<const uint64_t>(hashed.data() + i * width, width);
    };
    std::vector<size_t> order(preimages.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::ranges::lexicographical_compare(value(a), value(b));
    });
    for (size_t k = 1; k < order.size(); ++k) {
      if (std::ranges::equal(value(order[k - 1]), value(order[k]))) {
        // Two preimages collided on one hash value; the canonical encoder
        // derives one preimage per distinct value, so this blob is bogus.
        return Status::ParseError("minimum preimages collide");
      }
    }
    // Canonicality: each shipped preimage must be the solver's own
    // (free-variables-zero) solution — for a rank-deficient hash, x ⊕ k
    // with kernel vector k would hash identically, and accepting it would
    // give one row state two wire encodings, unlike every other v2 field.
    if (count > 0) {
      const PreimageSolver solver(row.hash());
      for (size_t i = 0; i < preimages.size(); ++i) {
        // value(i) = h(preimages[i]) has a preimage, so Solve returns the
        // canonical one.
        if (solver.Solve(value(i)) != preimages[i]) {
          return Status::ParseError("minimum preimage is not canonical");
        }
      }
    }
    for (const size_t i : order) row.AddHashedWords(value(i));
    return Status::Ok();
  }
  BitVec prev;
  for (uint64_t i = 0; i < count; ++i) {
    BitVec v;
    if (!r.RawBits(row.output_bits(), &v)) return Truncated("minimum values");
    if (i > 0 && !(prev < v)) {
      return Status::ParseError("minimum values not strictly ascending");
    }
    prev = v;
    row.AddHashed(v);
  }
  return Status::Ok();
}

// ---- Estimation row -------------------------------------------------------

namespace {

/// Bits per packed v2 cell counter: cells hold trailing-zero counts in
/// [0, D] where D is the hash width (the field degree), so
/// ceil(log2(D + 1)) bits suffice — 6 for the default n = 32 sketches, 7
/// at most. Both sides know the field, so the width is never stored.
int CellBits(int max_cell) {
  return std::bit_width(static_cast<unsigned>(max_cell));
}

/// Packs `cells` at `cell_bits` bits each, MSB-first within bytes, zero
/// pad bits — the v2 cell-block layout.
void PackCells(ByteWriter& w, const std::vector<int>& cells, int cell_bits) {
  uint32_t acc = 0;
  int nbits = 0;
  for (const int c : cells) {
    acc = (acc << cell_bits) | static_cast<uint32_t>(c);
    nbits += cell_bits;
    while (nbits >= 8) {
      w.U8(static_cast<uint8_t>(acc >> (nbits - 8)));
      nbits -= 8;
      acc &= (1u << nbits) - 1;
    }
  }
  if (nbits > 0) w.U8(static_cast<uint8_t>(acc << (8 - nbits)));
}

/// Counterpart of PackCells; rejects out-of-domain counters and nonzero
/// pad bits (one canonical encoding per cell vector).
Status UnpackCells(ByteReader& r, uint64_t count, int cell_bits, int max_cell,
                   std::vector<int>* out) {
  uint32_t acc = 0;
  int nbits = 0;
  for (uint64_t i = 0; i < count; ++i) {
    while (nbits < cell_bits) {
      uint8_t byte = 0;
      if (!r.U8(&byte)) return Truncated("estimation cells");
      acc = (acc << 8) | byte;
      nbits += 8;
    }
    const uint32_t cell =
        (acc >> (nbits - cell_bits)) & ((1u << cell_bits) - 1);
    nbits -= cell_bits;
    acc &= (1u << nbits) - 1;
    if (cell > static_cast<uint32_t>(max_cell)) {
      return Status::ParseError("estimation cell exceeds the hash width");
    }
    out->push_back(static_cast<int>(cell));
  }
  if (acc != 0) {
    return Status::ParseError("nonzero pad bits in estimation cell block");
  }
  return Status::Ok();
}

}  // namespace

void EncodeEstimationPayload(ByteWriter& w, const EstimationSketchRow& row,
                             bool embed_hash) {
  // Estimator rows always carry hashes; cells-only rows (§3.4/§4
  // counting) never travel.
  MCF0_CHECK(!row.hashes().empty());
  const int degree = row.hashes().front().field_degree();
  if (embed_hash) {
    w.U8(1);
    // Coefficients are field elements of w bits; ship exactly ceil(w/8)
    // bytes each instead of v1's fixed 8.
    const int coeff_bytes = (degree + 7) / 8;
    w.Varint(row.hashes().size());
    for (const PolynomialHash& h : row.hashes()) {
      w.Varint(static_cast<uint64_t>(h.s()));
      for (const uint64_t c : h.coeffs()) w.UintN(c, coeff_bytes);
    }
  }
  w.Varint(row.cells().size());
  PackCells(w, row.cells(), CellBits(degree));
}

Status DecodeEstimationPayload(ByteReader& r, uint16_t version,
                               const Gf2Field& field,
                               std::vector<PolynomialHash>* elided,
                               std::optional<EstimationSketchRow>* out) {
  const bool v1 = version == SketchCodec::kFormatV1;
  const int degree = field.degree();
  std::vector<PolynomialHash> hashes;
  if (elided != nullptr) {
    MCF0_CHECK(!v1);
    hashes = std::move(*elided);
  } else {
    uint8_t has_hashes = 0;
    if (!r.U8(&has_hashes)) return Truncated("estimation row");
    if (has_hashes != 1) {
      return Status::ParseError("estimation row has a bad hash marker");
    }
    const uint64_t mask = degree == 64 ? ~0ull : ((1ull << degree) - 1);
    const int coeff_bytes = (degree + 7) / 8;
    uint64_t num_hashes = 0;
    if (!r.Count(version, &num_hashes)) return Truncated("estimation row");
    if (num_hashes > r.Remaining() / (v1 ? 4 : 1)) {
      return Truncated("estimation hashes");
    }
    for (uint64_t i = 0; i < num_hashes; ++i) {
      uint64_t s = 0;
      if (!r.Count(version, &s)) return Truncated("estimation hashes");
      if (s < 1) return Status::ParseError("estimation hash needs s >= 1");
      if (i > 0 && s != static_cast<uint64_t>(hashes[0].s())) {
        // A row evaluates all its columns on one set of shared powers.
        return Status::ParseError("estimation hashes differ in s");
      }
      if (s > r.Remaining() / (v1 ? 8 : 1)) {
        return Truncated("estimation hashes");
      }
      std::vector<uint64_t> coeffs(s);
      for (auto& c : coeffs) {
        if (v1 ? !r.U64(&c) : !r.UintN(&c, coeff_bytes)) {
          return Truncated("estimation hashes");
        }
        if ((c & ~mask) != 0) {
          return Status::ParseError("estimation coefficient outside GF(2^w)");
        }
      }
      hashes.emplace_back(&field, std::move(coeffs));
    }
  }
  uint64_t num_cells = 0;
  if (!r.Count(version, &num_cells)) return Truncated("estimation cells");
  if (num_cells < 1) return Status::ParseError("estimation row has no cells");
  if (hashes.size() != num_cells) {
    return Status::ParseError("estimation hash/cell count mismatch");
  }
  std::vector<int> cells;
  if (v1) {
    if (num_cells > r.Remaining()) return Truncated("estimation cells");
    for (uint64_t i = 0; i < num_cells; ++i) {
      uint8_t v = 0;
      if (!r.U8(&v)) return Truncated("estimation cells");
      if (v > degree) {
        return Status::ParseError("estimation cell exceeds the hash width");
      }
      cells.push_back(v);
    }
  } else {
    // v2 packs counters at CellBits(D) bits each, exactly as the encoder
    // does. Bound the claimed count before allocating: every cell costs
    // at least one bit.
    const int cell_bits = CellBits(degree);
    if (num_cells > 8 * r.Remaining()) return Truncated("estimation cells");
    if ((num_cells * static_cast<uint64_t>(cell_bits) + 7) / 8 >
        r.Remaining()) {
      return Truncated("estimation cells");
    }
    Status status = UnpackCells(r, num_cells, cell_bits, degree, &cells);
    if (!status.ok()) return status;
  }
  out->emplace(std::move(hashes), std::move(cells));
  return Status::Ok();
}

// ---- Flajolet-Martin row --------------------------------------------------

void EncodeFmPayload(ByteWriter& w, const FlajoletMartinRow& row,
                     bool embed_hash) {
  if (embed_hash) EncodeAffineHash(w, row.hash());
  w.Varint(static_cast<uint64_t>(row.max_trailing_zeros()));
}

Status DecodeFmPayload(ByteReader& r, uint16_t version,
                       const AffineHash* elided_hash,
                       std::optional<FlajoletMartinRow>* out) {
  const bool v1 = version == SketchCodec::kFormatV1;
  std::optional<AffineHash> h;
  if (elided_hash != nullptr) {
    h = *elided_hash;
  } else {
    Status status = DecodeSquareHash(r, version, "FM row", 64, &h);
    if (!status.ok()) return status;
  }
  uint64_t max_tz = 0;
  if (v1) {
    uint32_t tz32 = 0;
    if (!r.U32(&tz32)) return Truncated("FM row");
    max_tz = tz32;
  } else if (!r.Varint(&max_tz)) {
    return Truncated("FM row");
  }
  if (max_tz > static_cast<uint64_t>(h->n())) {
    return Status::ParseError("FM counter exceeds hash width");
  }
  out->emplace(*std::move(h), static_cast<int>(max_tz));
  return Status::Ok();
}

// ---- structured params ----------------------------------------------------

void EncodeStructuredParams(ByteWriter& w, const StructuredF0Params& p) {
  w.U8(static_cast<uint8_t>(p.algorithm));
  w.Varint(static_cast<uint64_t>(p.n));
  w.F64(p.eps);
  w.F64(p.delta);
  w.U64(p.seed);
  w.Varint(p.thresh_override);
  w.Varint(static_cast<uint64_t>(p.rows_override));
}

Status DecodeStructuredParams(ByteReader& r, StructuredF0Params* out) {
  uint8_t algorithm = 0;
  uint64_t n = 0;
  uint64_t thresh_override = 0;
  uint64_t rows_override = 0;
  if (!r.U8(&algorithm) || !r.Varint(&n) || !r.F64(&out->eps) ||
      !r.F64(&out->delta) || !r.U64(&out->seed) ||
      !r.Varint(&thresh_override) ||
      !r.Varint(&rows_override)) {
    return Truncated("structured sketch parameters");
  }
  if (algorithm > static_cast<uint8_t>(StructuredF0Algorithm::kBucketing)) {
    return Status::ParseError("unknown structured sketch algorithm " +
                              std::to_string(algorithm));
  }
  // Structured universes are not word-capped, but an n the hash decoder
  // would refuse anyway (2^24) is hostile here too.
  if (n < 1 || n > (1u << 24)) {
    return Status::ParseError("structured sketch n out of range");
  }
  if (!std::isfinite(out->eps) || out->eps <= 0) {
    return Status::ParseError("sketch eps must be positive and finite");
  }
  // Same hazard as the raw params block: with no override the thresh
  // formula casts 96/eps^2 to uint64, so bound eps where that runs.
  if (thresh_override == 0 && out->eps < 1e-6) {
    return Status::ParseError(
        "sketch eps below 1e-6 needs an explicit thresh override");
  }
  if (!std::isfinite(out->delta) || out->delta <= 0 || out->delta >= 1) {
    return Status::ParseError("sketch delta outside (0, 1)");
  }
  if (rows_override >
      static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError("sketch row override out of range");
  }
  out->algorithm = static_cast<StructuredF0Algorithm>(algorithm);
  out->n = static_cast<int>(n);
  out->thresh_override = thresh_override;
  out->rows_override = static_cast<int>(rows_override);
  return Status::Ok();
}

// ---- structured Bucketing row ---------------------------------------------

void EncodeStructuredBucketPayload(ByteWriter& w,
                                   const StructuredBucketRow& row,
                                   bool embed_hash) {
  if (embed_hash) EncodeAffineHash(w, row.hash());
  w.Varint(row.thresh());
  w.Varint(static_cast<uint64_t>(row.level()));
  w.Varint(row.bucket().size());
  // std::set<BitVec> iterates in lexicographic (strictly ascending) order:
  // the canonical layout, n bits per element.
  for (const BitVec& x : row.bucket()) w.RawBits(x);
}

Status DecodeStructuredBucketPayload(ByteReader& r, uint16_t version,
                                     const AffineHash* elided_hash,
                                     std::optional<StructuredBucketRow>* out) {
  if (version != SketchCodec::kFormatV2) {
    return Status::NotSupported("structured sketch frames require format v2");
  }
  std::optional<AffineHash> h;
  if (elided_hash != nullptr) {
    h = *elided_hash;
  } else {
    Status status = DecodeAffineHash(r, version, &h);
    if (!status.ok()) return status;
    if (h->n() != h->m()) {
      return Status::ParseError("structured bucketing row: hash must be "
                                "square");
    }
  }
  const int n = h->n();
  uint64_t thresh = 0;
  uint64_t level = 0;
  uint64_t count = 0;
  if (!r.Varint(&thresh) || !r.Varint(&level) || !r.Varint(&count)) {
    return Truncated("structured bucketing row");
  }
  if (thresh < 1) return Status::ParseError("bucketing thresh must be >= 1");
  if (level > static_cast<uint64_t>(n)) {
    return Status::ParseError("bucketing level exceeds hash width");
  }
  // Every element costs ceil(n/8) >= 1 payload bytes.
  if (count > r.Remaining()) return Truncated("structured bucket");
  if (level < static_cast<uint64_t>(n) && count > thresh) {
    return Status::ParseError("bucketing bucket exceeds thresh below level n");
  }
  std::set<BitVec> bucket;
  BitVec prev;
  for (uint64_t i = 0; i < count; ++i) {
    BitVec x;
    if (!r.RawBits(n, &x)) return Truncated("structured bucket");
    if (i > 0 && !(prev < x)) {
      return Status::ParseError(
          "structured bucket elements not strictly ascending");
    }
    prev = x;
    bucket.insert(std::move(x));
  }
  out->emplace(*std::move(h), thresh, static_cast<int>(level),
               std::move(bucket));
  // The from-parts invariant, as for the word-universe row: every element
  // lies in the cell at `level` (else estimates inflate and blob equality
  // stops being state equality).
  const StructuredBucketRow& row = out->value();
  for (const BitVec& x : row.bucket()) {
    if (!row.InCell(x, row.level())) {
      return Status::ParseError(
          "structured bucket element outside the cell at its level");
    }
  }
  return Status::Ok();
}

// ---- canonical-hash eligibility -------------------------------------------

bool HashesMatchCanonicalSample(const F0Estimator& est) {
  F0RowSampler sampler(est.params());
  auto same = [](const AffineHash& a, const AffineHash& b) {
    return a == b && a.RepresentationBits() == b.RepresentationBits();
  };
  switch (est.params().algorithm) {
    case F0Algorithm::kBucketing:
      for (const auto& row : est.bucketing_rows()) {
        if (!same(row.hash(), sampler.NextBucketingRow().hash())) return false;
      }
      return true;
    case F0Algorithm::kMinimum:
      for (const auto& row : est.minimum_rows()) {
        if (!same(row.hash(), sampler.NextMinimumRow().hash())) return false;
      }
      return true;
    case F0Algorithm::kEstimation:
      for (size_t i = 0; i < est.estimation_rows().size(); ++i) {
        const auto [sampled_est, sampled_fm] = sampler.NextEstimationPair();
        if (!(est.estimation_rows()[i].hashes() == sampled_est.hashes()) ||
            !same(est.fm_rows()[i].hash(), sampled_fm.hash())) {
          return false;
        }
      }
      return true;
  }
  return false;
}

bool HashesMatchCanonicalSample(const StructuredF0& sketch) {
  StructuredF0RowSampler sampler(sketch.params());
  auto same = [](const AffineHash& a, const AffineHash& b) {
    return a == b && a.RepresentationBits() == b.RepresentationBits();
  };
  if (sketch.params().algorithm == StructuredF0Algorithm::kMinimum) {
    for (const auto& row : sketch.minimum_rows()) {
      if (!same(row.hash(), sampler.NextMinimumRow().hash())) return false;
    }
  } else {
    for (const auto& row : sketch.bucketing_rows()) {
      if (!same(row.hash(), sampler.NextBucketingRow().hash())) return false;
    }
  }
  return true;
}

}  // namespace wire
}  // namespace mcf0
