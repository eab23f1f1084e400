/// \file protocol.hpp
/// \brief The `mcf0 serve` wire protocol: v2 frame machinery over TCP.
///
/// Every message is one frame in the exact 24-byte header format of the
/// sketch codec (magic "MCF0", version, kind byte, length, FNV-1a-64
/// checksum — wire.hpp), with kind bytes from the protocol's own
/// namespace (FrameType, 0x10+; disjoint from SketchFrameKind so a
/// sketch file can never be replayed as a protocol message or vice
/// versa). Payloads reuse the wire primitives: varints, delta codes,
/// the params blocks of EncodeParams/EncodeStructuredParams, and whole
/// nested sketch frames for snapshot responses. docs/serve.md is the
/// normative spec, including the credit-based flow-control rule.
///
/// Like the sketch codec, decoding never aborts on bad input: truncated,
/// corrupt, or out-of-domain bytes surface as a non-OK Status, and
/// Status <-> error frame mapping is 1:1 (StatusCode values are frozen
/// on the wire).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/wire.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace net {

/// Highest protocol revision this build speaks, carried in the frame
/// header's version field (its own numbering, independent of sketch
/// format versions). Revision 2 added the kStatsQuery/kStatsReport
/// pair; every frame that existed in revision 1 is still stamped with
/// version 1 on the wire (FrameWireVersion), so a v1 peer interoperates
/// fully minus the stats exchange.
inline constexpr uint16_t kProtocolVersion = 2;

/// Lowest revision whose receivers understand the stats frame pair.
inline constexpr uint16_t kStatsMinVersion = 2;

/// Hard ceiling on one frame's payload; a peer claiming more is a
/// protocol error, never an allocation. Generous: the largest legitimate
/// frame is a sketch snapshot (tens of KiB) or a max-size batch.
inline constexpr uint64_t kMaxFramePayload = 16ull << 20;

/// Upper bound a server may set for items per batch frame.
inline constexpr uint64_t kMaxBatchItemsLimit = 1ull << 20;

/// Frame kind bytes. 0x10+ keeps the namespace disjoint from the sketch
/// frame kinds 0-6 (SketchFrameKind's 0 and 5, plus the retired row kinds
/// that stay reserved). Values are frozen on the wire — append only.
enum class FrameType : uint8_t {
  kHello = 0x10,          ///< client -> server: open a session
  kWelcome = 0x11,        ///< server -> client: params + initial credits
  kBatch = 0x12,          ///< client -> server: one batch of items
  kAck = 0x13,            ///< server -> client: batch dispatched + credits
  kCredit = 0x14,         ///< server -> client: standalone credit grant
  kQueryEstimate = 0x15,  ///< client -> server: live estimate, no drain
  kEstimate = 0x16,       ///< server -> client: the estimate
  kQuerySketch = 0x17,    ///< client -> server: snapshot sketch request
  kSketch = 0x18,         ///< server -> client: nested encoded sketch frame
  kDrain = 0x19,          ///< server -> client: draining; flush + goodbye
  kGoodbye = 0x1A,        ///< client -> server: session done
  kGoodbyeAck = 0x1B,     ///< server -> client: all batches absorbed; close
  kError = 0x1C,          ///< either direction: Status, then close
  kStatsQuery = 0x1D,     ///< client -> server: metrics snapshot (rev 2+)
  kStatsReport = 0x1E,    ///< server -> client: the metrics (rev 2+)
};

/// The protocol revision a frame of this type is stamped with: 1 for
/// everything revision 1 defined, kStatsMinVersion for the stats pair.
uint16_t FrameWireVersion(FrameType type);

/// Which item alphabet a session streams; fixed at Hello time and must
/// match the server's engine.
enum class StreamKind : uint8_t {
  kRaw = 0,         ///< uint64 elements -> F0Estimator
  kStructured = 1,  ///< StructuredItem sets -> StructuredF0
};

// ---- frame structs --------------------------------------------------------
// kQueryEstimate, kQuerySketch, kDrain, kGoodbye, and kGoodbyeAck carry
// empty payloads and need no struct.

struct HelloFrame {
  StreamKind kind = StreamKind::kRaw;
  /// Highest sketch wire-format version the client can decode. Servers
  /// send v2 sketches only, so they refuse a hello below 2 (kNotSupported).
  uint16_t max_sketch_format = 2;
};

struct WelcomeFrame {
  StreamKind kind = StreamKind::kRaw;
  /// The engine's parameters — the client can verify a mapper's
  /// assumptions (or build a locally mergeable sketch) without a side
  /// channel. Raw sessions carry F0Params, structured ones
  /// StructuredF0Params, via the sketch codec's params blocks.
  std::variant<F0Params, StructuredF0Params> params;
  /// Batches the client may send before the first Ack/Credit arrives.
  uint64_t initial_credits = 0;
  /// Items per kBatch frame the server accepts (<= kMaxBatchItemsLimit).
  uint64_t max_batch_items = 0;
};

/// One batch of items. `seq` starts at 1 and increments by exactly 1 per
/// batch on a connection; the Ack's seq is cumulative.
struct RawBatchFrame {
  uint64_t seq = 0;
  std::vector<uint64_t> items;
};
struct StructuredBatchFrame {
  uint64_t seq = 0;
  std::vector<StructuredItem> items;
};

struct AckFrame {
  uint64_t seq = 0;      ///< highest batch seq dispatched into the engine
  uint64_t credits = 0;  ///< additional credits granted (may be 0)
};

struct CreditFrame {
  uint64_t credits = 0;  ///< additional credits granted (>= 1)
};

struct EstimateFrame {
  double estimate = 0.0;
  uint64_t items_ingested = 0;  ///< engine-wide, all connections
};

struct SketchFrame {
  /// A complete encoded sketch frame (SketchCodec::Encode output) —
  /// decodable by SketchVariant::Decode, writable as a .mcf0 file as-is.
  std::string blob;
};

struct ErrorFrame {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// One metric in a stats report: a registry key (name plus rendered
/// labels, e.g. `mcf0_serve_frames_in_total{type="batch"}`) and its
/// value. Histograms are flattened to `<key>_count` / `<key>_sum`
/// entries; gauges are clamped at zero (docs/observability.md).
struct StatsEntry {
  std::string name;
  uint64_t value = 0;
};

/// kStatsReport payload: the server's registry snapshot as flat
/// entries, strictly sorted by name — one canonical encoding, enforced
/// on decode. kStatsQuery itself carries an empty payload.
struct StatsReportFrame {
  std::vector<StatsEntry> entries;

  /// The entry's value, or nullopt if the name is absent.
  std::optional<uint64_t> Find(std::string_view name) const;
};

// ---- payload codecs -------------------------------------------------------

std::string EncodeHello(const HelloFrame& hello);
Status DecodeHello(std::string_view payload, HelloFrame* out);

std::string EncodeWelcome(const WelcomeFrame& welcome);
Status DecodeWelcome(std::string_view payload, WelcomeFrame* out);

std::string EncodeRawBatch(const RawBatchFrame& batch);
Status DecodeRawBatch(std::string_view payload, uint64_t max_items,
                      RawBatchFrame* out);

/// Structured batches are validated against the server universe width
/// `n` (lit vars in range, range/affine/element widths equal to n) so a
/// malicious frame becomes a Status, never an engine CHECK abort.
std::string EncodeStructuredBatch(const StructuredBatchFrame& batch);
Status DecodeStructuredBatch(std::string_view payload, int n,
                             uint64_t max_items, StructuredBatchFrame* out);

std::string EncodeAck(const AckFrame& ack);
Status DecodeAck(std::string_view payload, AckFrame* out);

std::string EncodeCredit(const CreditFrame& credit);
Status DecodeCredit(std::string_view payload, CreditFrame* out);

std::string EncodeEstimate(const EstimateFrame& estimate);
Status DecodeEstimate(std::string_view payload, EstimateFrame* out);

std::string EncodeSketch(const SketchFrame& sketch);
Status DecodeSketch(std::string_view payload, SketchFrame* out);

std::string EncodeStatsReport(const StatsReportFrame& report);
Status DecodeStatsReport(std::string_view payload, StatsReportFrame* out);

/// Status -> error frame -> Status is the identity on (code, message).
std::string EncodeError(const ErrorFrame& error);
Status DecodeError(std::string_view payload, ErrorFrame* out);
ErrorFrame ErrorFromStatus(const Status& status);
Status StatusFromError(const ErrorFrame& error);

/// One StructuredItem, tagged: 0 = DNF term group, 1 = multidim range,
/// 2 = affine space, 3 = singleton element. Shared by the batch codec
/// and tests.
void EncodeStructuredItem(wire::ByteWriter& w, const StructuredItem& item);
Status DecodeStructuredItem(wire::ByteReader& r, int n, StructuredItem* out);

// ---- framing --------------------------------------------------------------

/// Wraps a payload in the protocol frame header.
std::string WrapMessage(FrameType type, std::string payload);

/// One complete inbound frame.
struct Message {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Incremental frame extraction from a TCP byte stream. Append() raw
/// bytes as they arrive; Next() yields complete validated frames.
/// Header, checksum, size-cap, and kind-range violations are fatal
/// protocol errors (the stream cannot be resynchronized past a bad
/// header) and every later call keeps returning the same error.
class FrameBuffer {
 public:
  void Append(std::string_view bytes);

  /// Extracts the next complete frame into `*out` and returns true;
  /// returns false with an OK status when more bytes are needed, false
  /// with a non-OK status on a protocol violation.
  bool Next(Message* out, Status* status);

  /// Bytes currently buffered (bounded by the flow-control window for a
  /// compliant peer; the frame size cap for any peer).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  Status error_ = Status::Ok();
};

}  // namespace net
}  // namespace mcf0
