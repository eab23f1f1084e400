/// \file client.hpp
/// \brief `mcf0 push`: the blocking client side of the serve protocol.
///
/// A `PushClient` opens one session, honors the server's credit window
/// (blocking on acks when the window is spent — that is the flow
/// control doing its job), batches items up to the negotiated limit,
/// and supports live estimate/sketch queries racing its own pushes.
/// Stalled reads surface as kDeadlineExceeded via SO_RCVTIMEO; a server
/// drain flips drain_requested() so callers can wrap up early.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"

namespace mcf0 {
namespace net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Bound on any single wait for a server frame (0 = wait forever).
  int recv_timeout_ms = 30'000;
  /// Highest sketch format this client will accept from kSketch.
  uint16_t max_sketch_format = 2;
};

/// One client session. Move-only (owns the socket). Blocking: every
/// call completes the protocol exchange it names or returns why not.
class PushClient {
 public:
  /// Dials the server and completes the hello/welcome negotiation.
  static Result<PushClient> Connect(StreamKind kind,
                                    const ClientOptions& options);

  PushClient(PushClient&&) = default;
  PushClient& operator=(PushClient&&) = default;

  /// What the server advertised (params, credits, batch limit).
  const WelcomeFrame& welcome() const { return welcome_; }

  /// Buffers raw elements, sending full batches as the window allows.
  Status Push(std::span<const uint64_t> items);
  /// Buffers one structured item, ditto.
  Status PushItem(StructuredItem item);
  /// Sends any buffered partial batch.
  Status Flush();

  /// Live merged estimate (racing other producers' pushes).
  Result<EstimateFrame> QueryEstimate();
  /// Snapshot sketch, as a complete encoded sketch blob.
  Result<std::string> QuerySketch();
  /// Server metrics snapshot (protocol revision 2+; an older server
  /// rejects the frame kind and the session ends with its error).
  Result<StatsReportFrame> QueryStats();

  /// Flushes, says goodbye, and waits for the server's goodbye-ack —
  /// the guarantee that every pushed batch reached the engine.
  /// Idempotent; later Push/Query calls return kFailedPrecondition.
  Status Close();

  /// The server announced a drain: finish up and Close().
  bool drain_requested() const { return drain_requested_; }

  uint64_t batches_sent() const { return next_seq_ - 1; }
  uint64_t batches_acked() const { return acked_seq_; }
  /// Unspent credit grants — test hook for the flow-control bound.
  uint64_t credits() const { return credits_; }

 private:
  PushClient(ScopedFd fd, StreamKind kind);

  /// Sends every byte of `bytes` (blocking).
  Status SendAll(std::string_view bytes);
  /// Blocks for the next complete frame; EAGAIN -> kDeadlineExceeded.
  Status ReadMessage(Message* out);
  /// Absorbs ack/credit/drain bookkeeping frames; `*handled` says so.
  /// A kError frame from the server becomes its carried Status.
  Status HandleBookkeeping(const Message& message, bool* handled);
  /// Blocks until at least one credit is available.
  Status AwaitCredit();
  /// Encodes and sends the buffered items as one batch.
  Status SendBufferedBatch();
  /// One query round trip: flushes, sends a payload-less `query` frame,
  /// and reads past bookkeeping frames to the reply, which must be of
  /// type `reply` (else ParseError(`mismatch`)).
  Status Request(FrameType query, FrameType reply, const char* mismatch,
                 Message* out);
  Status CheckOpen() const;

  ScopedFd fd_;
  StreamKind kind_ = StreamKind::kRaw;
  FrameBuffer inbox_;
  WelcomeFrame welcome_;
  bool open_ = false;
  bool drain_requested_ = false;

  uint64_t credits_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t acked_seq_ = 0;

  std::vector<uint64_t> raw_buffer_;
  std::vector<StructuredItem> structured_buffer_;
};

}  // namespace net
}  // namespace mcf0
