#include "net/protocol.hpp"

#include <cstring>

#include "setstream/range_to_dnf.hpp"

namespace mcf0 {
namespace net {

namespace {

using wire::ByteReader;
using wire::ByteWriter;

Status Malformed(const char* what) {
  return Status::ParseError(std::string("net frame: ") + what);
}

/// Every payload decoder must consume its bytes exactly — one canonical
/// byte string per message, like the sketch codecs.
Status FinishDecode(const ByteReader& r, const char* what) {
  if (!r.Done()) {
    return Status::ParseError(std::string("net frame: trailing bytes after ") +
                              what);
  }
  return Status::Ok();
}

bool ValidStreamKind(uint8_t v) {
  return v == static_cast<uint8_t>(StreamKind::kRaw) ||
         v == static_cast<uint8_t>(StreamKind::kStructured);
}

}  // namespace

// ---- hello / welcome ------------------------------------------------------

std::string EncodeHello(const HelloFrame& hello) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(hello.kind));
  w.U16(hello.max_sketch_format);
  return w.Take();
}

Status DecodeHello(std::string_view payload, HelloFrame* out) {
  ByteReader r(payload);
  uint8_t kind = 0;
  uint16_t max_format = 0;
  if (!r.U8(&kind) || !r.U16(&max_format)) return Malformed("truncated hello");
  if (!ValidStreamKind(kind)) return Malformed("hello stream kind unknown");
  if (max_format < 1) return Malformed("hello max sketch format must be >= 1");
  out->kind = static_cast<StreamKind>(kind);
  out->max_sketch_format = max_format;
  return FinishDecode(r, "hello");
}

std::string EncodeWelcome(const WelcomeFrame& welcome) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(welcome.kind));
  if (welcome.kind == StreamKind::kRaw) {
    wire::EncodeParams(w, std::get<F0Params>(welcome.params));
  } else {
    wire::EncodeStructuredParams(w,
                                 std::get<StructuredF0Params>(welcome.params));
  }
  w.Varint(welcome.initial_credits);
  w.Varint(welcome.max_batch_items);
  return w.Take();
}

Status DecodeWelcome(std::string_view payload, WelcomeFrame* out) {
  ByteReader r(payload);
  uint8_t kind = 0;
  if (!r.U8(&kind)) return Malformed("truncated welcome");
  if (!ValidStreamKind(kind)) return Malformed("welcome stream kind unknown");
  out->kind = static_cast<StreamKind>(kind);
  if (out->kind == StreamKind::kRaw) {
    F0Params params;
    const Status status = wire::DecodeParams(r, &params);
    if (!status.ok()) return status.Annotate("welcome params");
    out->params = params;
  } else {
    StructuredF0Params params;
    const Status status = wire::DecodeStructuredParams(r, &params);
    if (!status.ok()) return status.Annotate("welcome params");
    out->params = params;
  }
  if (!r.Varint(&out->initial_credits) || !r.Varint(&out->max_batch_items)) {
    return Malformed("truncated welcome");
  }
  if (out->initial_credits < 1) {
    return Malformed("welcome must grant at least one credit");
  }
  if (out->max_batch_items < 1 ||
      out->max_batch_items > kMaxBatchItemsLimit) {
    return Malformed("welcome batch item limit out of range");
  }
  return FinishDecode(r, "welcome");
}

// ---- batches --------------------------------------------------------------

std::string EncodeRawBatch(const RawBatchFrame& batch) {
  ByteWriter w;
  w.Varint(batch.seq);
  w.Varint(batch.items.size());
  for (const uint64_t x : batch.items) w.U64(x);
  return w.Take();
}

Status DecodeRawBatch(std::string_view payload, uint64_t max_items,
                      RawBatchFrame* out) {
  ByteReader r(payload);
  uint64_t count = 0;
  if (!r.Varint(&out->seq) || !r.Varint(&count)) {
    return Malformed("truncated batch");
  }
  if (out->seq < 1) return Malformed("batch seq must be >= 1");
  if (count < 1) return Malformed("batch must carry at least one item");
  if (count > max_items) {
    return Malformed("batch exceeds the negotiated item limit");
  }
  out->items.clear();
  out->items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t x = 0;
    if (!r.U64(&x)) return Malformed("truncated batch");
    out->items.push_back(x);
  }
  return FinishDecode(r, "batch");
}

void EncodeStructuredItem(ByteWriter& w, const StructuredItem& item) {
  std::visit(
      [&w](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::vector<Term>>) {
          w.U8(0);
          w.Varint(value.size());
          for (const Term& term : value) {
            w.Varint(term.lits().size());
            for (const Lit& lit : term.lits()) {
              w.Varint(static_cast<uint64_t>(lit.var));
              w.U8(lit.neg ? 1 : 0);
            }
          }
        } else if constexpr (std::is_same_v<T, MultiDimRange>) {
          w.U8(1);
          w.Varint(static_cast<uint64_t>(value.dims()));
          for (int j = 0; j < value.dims(); ++j) {
            const DimRange& dim = value.Dim(j);
            w.Varint(static_cast<uint64_t>(value.bits()[j]));
            w.Varint(dim.lo);
            w.Varint(dim.hi);
            w.Varint(static_cast<uint64_t>(dim.log2_step));
          }
        } else if constexpr (std::is_same_v<T, AffineSpaceItem>) {
          w.U8(2);
          w.Varint(static_cast<uint64_t>(value.a.rows()));
          for (int i = 0; i < value.a.rows(); ++i) w.RawBits(value.a.Row(i));
          w.RawBits(value.b);
        } else {
          w.U8(3);
          w.RawBits(value);
        }
      },
      item);
}

Status DecodeStructuredItem(ByteReader& r, int n, StructuredItem* out) {
  uint8_t tag = 0;
  if (!r.U8(&tag)) return Malformed("truncated structured item");
  switch (tag) {
    case 0: {  // DNF term group
      uint64_t num_terms = 0;
      if (!r.Varint(&num_terms)) return Malformed("truncated structured item");
      if (num_terms < 1) {
        return Malformed("structured term group must be non-empty");
      }
      if (num_terms > kMaxBatchItemsLimit) {
        return Malformed("structured term group too large");
      }
      // Every term costs at least one payload byte (its literal count),
      // so a count beyond the remaining bytes is a lie — reject it
      // before reserving, or a small frame could claim a huge count and
      // force a matching allocation.
      if (num_terms > r.Remaining()) {
        return Malformed("structured term group larger than its payload");
      }
      std::vector<Term> terms;
      terms.reserve(num_terms);
      for (uint64_t t = 0; t < num_terms; ++t) {
        uint64_t num_lits = 0;
        if (!r.Varint(&num_lits)) return Malformed("truncated structured item");
        if (num_lits > static_cast<uint64_t>(n)) {
          // A term can mention each of the n variables at most once.
          return Malformed("structured term has more literals than variables");
        }
        std::vector<Lit> lits;
        lits.reserve(num_lits);
        for (uint64_t l = 0; l < num_lits; ++l) {
          uint64_t var = 0;
          uint8_t neg = 0;
          if (!r.Varint(&var) || !r.U8(&neg)) {
            return Malformed("truncated structured item");
          }
          if (var >= static_cast<uint64_t>(n)) {
            return Malformed("structured term variable outside the universe");
          }
          if (neg > 1) return Malformed("structured literal sign not 0/1");
          lits.emplace_back(static_cast<int>(var), neg == 1);
        }
        auto term = Term::Make(std::move(lits));
        if (!term.has_value()) {
          return Malformed("structured term is contradictory");
        }
        terms.push_back(std::move(*term));
      }
      *out = std::move(terms);
      return Status::Ok();
    }
    case 1: {  // multidimensional range / arithmetic progression
      uint64_t dims = 0;
      if (!r.Varint(&dims)) return Malformed("truncated structured item");
      // Every dimension is at least one bit, so dims is bounded by n.
      if (dims < 1 || dims > static_cast<uint64_t>(n)) {
        return Malformed("structured range dimension count out of range");
      }
      std::vector<int> bits;
      std::vector<DimRange> ranges;
      bits.reserve(dims);
      ranges.reserve(dims);
      uint64_t total_bits = 0;
      for (uint64_t j = 0; j < dims; ++j) {
        uint64_t dim_bits = 0;
        DimRange dim;
        uint64_t lo = 0;
        uint64_t hi = 0;
        uint64_t step = 0;
        if (!r.Varint(&dim_bits) || !r.Varint(&lo) || !r.Varint(&hi) ||
            !r.Varint(&step)) {
          return Malformed("truncated structured item");
        }
        if (dim_bits < 1 ||
            dim_bits > static_cast<uint64_t>(kMaxRangeDimensionBits)) {
          return Malformed("structured range dimension width out of range");
        }
        if (lo > hi || hi > (1ull << dim_bits) - 1) {
          return Malformed("structured range bounds out of order or domain");
        }
        if (step >= dim_bits) {
          return Malformed("structured range step exceeds dimension width");
        }
        total_bits += dim_bits;
        dim.lo = lo;
        dim.hi = hi;
        dim.log2_step = static_cast<int>(step);
        bits.push_back(static_cast<int>(dim_bits));
        ranges.push_back(dim);
      }
      if (total_bits != static_cast<uint64_t>(n)) {
        return Malformed("structured range universe width mismatch");
      }
      MultiDimRange range(std::move(bits));
      for (uint64_t j = 0; j < dims; ++j) {
        range.SetDim(static_cast<int>(j), ranges[j]);
      }
      if (RangeTermEnumerator(range).LiteralBound() >
          kMaxRangeExpansionLiterals) {
        return Malformed("structured range expands to too many terms");
      }
      *out = std::move(range);
      return Status::Ok();
    }
    case 2: {  // affine space <A, B>
      uint64_t rank = 0;
      if (!r.Varint(&rank)) return Malformed("truncated structured item");
      if (rank < 1 || rank > static_cast<uint64_t>(n)) {
        return Malformed("structured affine rank out of range");
      }
      std::vector<BitVec> rows;
      rows.reserve(rank);
      for (uint64_t i = 0; i < rank; ++i) {
        BitVec row;
        if (!r.RawBits(n, &row)) return Malformed("truncated structured item");
        rows.push_back(std::move(row));
      }
      AffineSpaceItem affine;
      affine.a = Gf2Matrix::FromRows(std::move(rows));
      if (!r.RawBits(static_cast<int>(rank), &affine.b)) {
        return Malformed("truncated structured item");
      }
      *out = std::move(affine);
      return Status::Ok();
    }
    case 3: {  // singleton element
      BitVec x;
      if (!r.RawBits(n, &x)) return Malformed("truncated structured item");
      *out = std::move(x);
      return Status::Ok();
    }
    default:
      return Malformed("structured item tag unknown");
  }
}

std::string EncodeStructuredBatch(const StructuredBatchFrame& batch) {
  ByteWriter w;
  w.Varint(batch.seq);
  w.Varint(batch.items.size());
  for (const StructuredItem& item : batch.items) EncodeStructuredItem(w, item);
  return w.Take();
}

Status DecodeStructuredBatch(std::string_view payload, int n,
                             uint64_t max_items, StructuredBatchFrame* out) {
  ByteReader r(payload);
  uint64_t count = 0;
  if (!r.Varint(&out->seq) || !r.Varint(&count)) {
    return Malformed("truncated batch");
  }
  if (out->seq < 1) return Malformed("batch seq must be >= 1");
  if (count < 1) return Malformed("batch must carry at least one item");
  if (count > max_items) {
    return Malformed("batch exceeds the negotiated item limit");
  }
  out->items.clear();
  out->items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    StructuredItem item;
    const Status status = DecodeStructuredItem(r, n, &item);
    if (!status.ok()) return status;
    out->items.push_back(std::move(item));
  }
  return FinishDecode(r, "batch");
}

// ---- acks / credits / queries ---------------------------------------------

std::string EncodeAck(const AckFrame& ack) {
  ByteWriter w;
  w.Varint(ack.seq);
  w.Varint(ack.credits);
  return w.Take();
}

Status DecodeAck(std::string_view payload, AckFrame* out) {
  ByteReader r(payload);
  if (!r.Varint(&out->seq) || !r.Varint(&out->credits)) {
    return Malformed("truncated ack");
  }
  if (out->seq < 1) return Malformed("ack seq must be >= 1");
  return FinishDecode(r, "ack");
}

std::string EncodeCredit(const CreditFrame& credit) {
  ByteWriter w;
  w.Varint(credit.credits);
  return w.Take();
}

Status DecodeCredit(std::string_view payload, CreditFrame* out) {
  ByteReader r(payload);
  if (!r.Varint(&out->credits)) return Malformed("truncated credit");
  if (out->credits < 1) return Malformed("credit grant must be >= 1");
  return FinishDecode(r, "credit");
}

std::string EncodeEstimate(const EstimateFrame& estimate) {
  ByteWriter w;
  w.F64(estimate.estimate);
  w.Varint(estimate.items_ingested);
  return w.Take();
}

Status DecodeEstimate(std::string_view payload, EstimateFrame* out) {
  ByteReader r(payload);
  if (!r.F64(&out->estimate) || !r.Varint(&out->items_ingested)) {
    return Malformed("truncated estimate");
  }
  return FinishDecode(r, "estimate");
}

std::string EncodeSketch(const SketchFrame& sketch) {
  return sketch.blob;
}

Status DecodeSketch(std::string_view payload, SketchFrame* out) {
  // The payload is a complete nested sketch frame; the sketch codec
  // validates it fully on decode, but the header must at least fit.
  if (payload.size() < wire::kHeaderBytes) {
    return Malformed("sketch response too short for a sketch frame");
  }
  out->blob.assign(payload.data(), payload.size());
  return Status::Ok();
}

// ---- errors ---------------------------------------------------------------

std::string EncodeError(const ErrorFrame& error) {
  ByteWriter w;
  w.U16(static_cast<uint16_t>(error.code));
  w.Varint(error.message.size());
  for (const char c : error.message) w.U8(static_cast<uint8_t>(c));
  return w.Take();
}

Status DecodeError(std::string_view payload, ErrorFrame* out) {
  ByteReader r(payload);
  uint16_t code = 0;
  uint64_t length = 0;
  if (!r.U16(&code) || !r.Varint(&length)) return Malformed("truncated error");
  if (code == 0 || code > static_cast<uint16_t>(StatusCode::kDeadlineExceeded)) {
    return Malformed("error frame status code unknown");
  }
  if (length != r.Remaining()) return Malformed("error message length wrong");
  out->code = static_cast<StatusCode>(code);
  out->message.clear();
  out->message.reserve(length);
  for (uint64_t i = 0; i < length; ++i) {
    uint8_t c = 0;
    r.U8(&c);
    out->message.push_back(static_cast<char>(c));
  }
  return FinishDecode(r, "error");
}

// ---- stats ----------------------------------------------------------------

namespace {
/// Generous bound on entries per report; the registry holds a few dozen.
constexpr uint64_t kMaxStatsEntries = 4096;
constexpr uint64_t kMaxStatsNameBytes = 512;

bool ValidStatsNameChar(char c) {
  // Registry keys are metric names plus rendered labels: printable
  // ASCII, no spaces or control bytes.
  return c > 0x20 && c < 0x7F;
}
}  // namespace

std::optional<uint64_t> StatsReportFrame::Find(std::string_view name) const {
  for (const StatsEntry& entry : entries) {
    if (entry.name == name) return entry.value;
  }
  return std::nullopt;
}

std::string EncodeStatsReport(const StatsReportFrame& report) {
  ByteWriter w;
  w.Varint(report.entries.size());
  for (const StatsEntry& entry : report.entries) {
    w.Varint(entry.name.size());
    for (const char c : entry.name) w.U8(static_cast<uint8_t>(c));
    w.Varint(entry.value);
  }
  return w.Take();
}

Status DecodeStatsReport(std::string_view payload, StatsReportFrame* out) {
  ByteReader r(payload);
  uint64_t count = 0;
  if (!r.Varint(&count)) return Malformed("truncated stats report");
  if (count > kMaxStatsEntries) return Malformed("stats report too large");
  out->entries.clear();
  out->entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0;
    if (!r.Varint(&length)) return Malformed("truncated stats report");
    if (length < 1 || length > kMaxStatsNameBytes) {
      return Malformed("stats entry name length out of range");
    }
    if (length > r.Remaining()) return Malformed("truncated stats report");
    StatsEntry entry;
    entry.name.reserve(length);
    for (uint64_t j = 0; j < length; ++j) {
      uint8_t c = 0;
      r.U8(&c);
      if (!ValidStatsNameChar(static_cast<char>(c))) {
        return Malformed("stats entry name has invalid characters");
      }
      entry.name.push_back(static_cast<char>(c));
    }
    if (!r.Varint(&entry.value)) return Malformed("truncated stats report");
    // Strict order doubles as a duplicate check and makes the encoding
    // canonical, like every other mcf0 codec.
    if (!out->entries.empty() && entry.name <= out->entries.back().name) {
      return Malformed("stats entries not strictly sorted by name");
    }
    out->entries.push_back(std::move(entry));
  }
  return FinishDecode(r, "stats report");
}

ErrorFrame ErrorFromStatus(const Status& status) {
  ErrorFrame frame;
  frame.code = status.code();
  frame.message = status.message();
  return frame;
}

Status StatusFromError(const ErrorFrame& error) {
  return Status::FromCode(error.code, error.message);
}

// ---- framing --------------------------------------------------------------

uint16_t FrameWireVersion(FrameType type) {
  switch (type) {
    case FrameType::kStatsQuery:
    case FrameType::kStatsReport:
      return kStatsMinVersion;
    default:
      return 1;
  }
}

std::string WrapMessage(FrameType type, std::string payload) {
  // Stamp each frame with the revision that introduced it, not the
  // highest we speak — a revision-1 peer keeps interoperating on the
  // revision-1 subset.
  return wire::WrapFrameRaw(static_cast<uint8_t>(type),
                            FrameWireVersion(type), std::move(payload));
}

void FrameBuffer::Append(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

bool FrameBuffer::Next(Message* out, Status* status) {
  if (!error_.ok()) {
    *status = error_;
    return false;
  }
  *status = Status::Ok();
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection doesn't grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  if (pending.size() < wire::kHeaderBytes) return false;
  wire::FrameHeader header;
  Status parsed = wire::ParseFrameHeader(pending, &header);
  if (parsed.ok() &&
      (header.version < 1 || header.version > kProtocolVersion)) {
    parsed = Status::NotSupported(
        "net frame: protocol version " + std::to_string(header.version) +
        " (this build speaks 1.." + std::to_string(kProtocolVersion) + ")");
  }
  if (parsed.ok() &&
      (header.kind < static_cast<uint8_t>(FrameType::kHello) ||
       header.kind > static_cast<uint8_t>(FrameType::kStatsReport))) {
    parsed = Malformed("unknown frame kind");
  }
  if (parsed.ok() &&
      header.version <
          FrameWireVersion(static_cast<FrameType>(header.kind))) {
    // A frame kind must not be smuggled under an older revision than
    // the one that defined it (the stats pair is version-gated).
    parsed = Malformed("frame kind not defined at its claimed version");
  }
  if (parsed.ok() && header.payload_size > kMaxFramePayload) {
    parsed = Malformed("frame payload exceeds the size cap");
  }
  if (!parsed.ok()) {
    // The stream has no resynchronization point past a bad header; the
    // error is sticky and the connection must close.
    error_ = parsed;
    *status = parsed;
    return false;
  }
  if (pending.size() < wire::kHeaderBytes + header.payload_size) return false;
  const std::string_view payload =
      pending.substr(wire::kHeaderBytes, header.payload_size);
  const Status checked = wire::CheckFramePayload(header, payload);
  if (!checked.ok()) {
    error_ = checked;
    *status = checked;
    return false;
  }
  out->type = static_cast<FrameType>(header.kind);
  out->payload.assign(payload.data(), payload.size());
  consumed_ += wire::kHeaderBytes + header.payload_size;
  return true;
}

}  // namespace net
}  // namespace mcf0
