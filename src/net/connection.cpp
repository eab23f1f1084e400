#include "net/connection.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "engine/sketch_codec.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace net {

namespace {

uint64_t NowSteadyUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr int kFrameTypeCount =
    static_cast<int>(FrameType::kStatsReport) -
    static_cast<int>(FrameType::kHello) + 1;

int FrameTypeIndex(FrameType type) {
  return static_cast<int>(type) - static_cast<int>(FrameType::kHello);
}

const char* FrameTypeLabel(int index) {
  static constexpr const char* kLabels[kFrameTypeCount] = {
      "hello",          "welcome", "batch",        "ack",
      "credit",         "query_estimate", "estimate", "query_sketch",
      "sketch",         "drain",   "goodbye",      "goodbye_ack",
      "error",          "stats_query",    "stats_report"};
  return kLabels[index];
}

/// Registry handles for the serve layer, resolved once per process.
/// These fold what used to be per-connection-only stats into the
/// process-wide registry; the per-connection counters survive for the
/// server's per-session summary.
struct ServeObs {
  obs::Counter* sessions_opened;
  obs::Gauge* sessions_active;
  obs::Counter* sessions_errored;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* batches;
  obs::Counter* items;
  obs::Histogram* push_batch_us;
  obs::Histogram* credit_stall_us;
  obs::Counter* frames_in[kFrameTypeCount];
  obs::Counter* frames_out[kFrameTypeCount];
  obs::Counter* errors_by_code[9];

  static ServeObs& Get() {
    static ServeObs* obs = [] {
      auto& reg = obs::Registry::Global();
      auto* o = new ServeObs();
      o->sessions_opened =
          reg.GetCounter("mcf0_serve_sessions_opened_total");
      o->sessions_active = reg.GetGauge("mcf0_serve_sessions_active");
      o->sessions_errored =
          reg.GetCounter("mcf0_serve_sessions_errored_total");
      o->bytes_in = reg.GetCounter("mcf0_serve_bytes_in_total");
      o->bytes_out = reg.GetCounter("mcf0_serve_bytes_out_total");
      o->batches = reg.GetCounter("mcf0_serve_batches_total");
      o->items = reg.GetCounter("mcf0_serve_items_total");
      o->push_batch_us = reg.GetHistogram("mcf0_serve_push_batch_us");
      o->credit_stall_us = reg.GetHistogram("mcf0_serve_credit_stall_us");
      for (int i = 0; i < kFrameTypeCount; ++i) {
        o->frames_in[i] = reg.GetCounter("mcf0_serve_frames_in_total",
                                         {{"type", FrameTypeLabel(i)}});
        o->frames_out[i] = reg.GetCounter("mcf0_serve_frames_out_total",
                                          {{"type", FrameTypeLabel(i)}});
      }
      for (int c = 0; c < 9; ++c) {
        o->errors_by_code[c] = reg.GetCounter(
            "mcf0_serve_error_frames_total",
            {{"code", StatusCodeName(static_cast<StatusCode>(c))}});
      }
      return o;
    }();
    return *obs;
  }
};

}  // namespace

Status ProducerHandle::PushRaw(std::span<const uint64_t>) {
  return Status::NotSupported("this session streams structured items");
}

Status ProducerHandle::PushStructured(std::span<StructuredItem>) {
  return Status::NotSupported("this session streams raw u64 elements");
}

Connection::Connection(ScopedFd fd, EngineBackend* backend,
                       ConnectionLimits limits)
    : fd_(std::move(fd)), backend_(backend), limits_(limits) {
  ServeObs::Get().sessions_opened->Increment();
  ServeObs::Get().sessions_active->Increment();
}

Connection::~Connection() { ServeObs::Get().sessions_active->Decrement(); }

void Connection::OnReadable() {
  char buffer[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      ServeObs::Get().bytes_in->Increment(static_cast<uint64_t>(n));
      inbox_.Append(std::string_view(buffer, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      // Peer closed. A clean session ends with goodbye -> kClosing; an
      // abrupt close still salvages everything already dispatched.
      ReleaseProducer();
      finished_ = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    ReleaseProducer();
    finished_ = true;
    return;
  }
  Message message;
  Status status;
  while (state_ != State::kClosing && inbox_.Next(&message, &status)) {
    HandleMessage(message);
  }
  if (state_ != State::kClosing && !status.ok()) Abort(status);
}

void Connection::OnWritable() {
  while (outbox_sent_ < outbox_.size()) {
    const ssize_t n = ::send(fd_.get(), outbox_.data() + outbox_sent_,
                             outbox_.size() - outbox_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      ServeObs::Get().bytes_out->Increment(static_cast<uint64_t>(n));
      outbox_sent_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    ReleaseProducer();
    finished_ = true;  // peer vanished mid-write
    return;
  }
  if (outbox_sent_ == outbox_.size()) {
    outbox_.clear();
    outbox_sent_ = 0;
    if (state_ == State::kClosing) finished_ = true;
  }
}

void Connection::OnHangup() {
  ReleaseProducer();
  finished_ = true;
}

void Connection::StartDrain() {
  if (state_ == State::kClosing || finished_) return;
  if (state_ == State::kAwaitHello) {
    // Not yet negotiated: announce the drain and close; the client sees
    // it as the server being unavailable for new sessions.
    state_ = State::kClosing;
    SendFrame(FrameType::kDrain, std::string());
    return;
  }
  if (state_ == State::kStreaming) {
    SendFrame(FrameType::kDrain, std::string());
    state_ = State::kDraining;
  }
}

bool Connection::PumpCredits() {
  if (state_ != State::kStreaming) return false;
  const uint64_t grant = CreditTopUp();
  if (grant == 0) return false;
  credits_ += grant;
  if (credit_stall_start_us_ != 0) {
    // The stall ends the moment a grant is queued for the peer.
    const uint64_t now = NowSteadyUs();
    ServeObs::Get().credit_stall_us->Observe(
        now >= credit_stall_start_us_ ? now - credit_stall_start_us_ : 0);
    credit_stall_start_us_ = 0;
  }
  SendFrame(FrameType::kCredit, EncodeCredit(CreditFrame{grant}));
  return true;
}

uint64_t Connection::CreditTopUp() const {
  // No new grants while draining: credited batches finish, new ones don't
  // start.
  if (state_ != State::kStreaming) return 0;
  if (credits_ >= limits_.credit_window) return 0;
  // The low-watermark rule: grant only while the engine queue has
  // headroom, so a flood of producers can't pile unbounded batches
  // behind a slow shard (docs/serve.md).
  if (backend_->queued_batches() >= backend_->queue_capacity() / 2) return 0;
  return limits_.credit_window - credits_;
}

void Connection::HandleMessage(const Message& message) {
  ServeObs::Get().frames_in[FrameTypeIndex(message.type)]->Increment();
  if (state_ == State::kAwaitHello) {
    if (message.type != FrameType::kHello) {
      Abort(Status::ParseError("expected hello as the first frame"));
      return;
    }
    HandleHello(message);
    return;
  }
  switch (message.type) {
    case FrameType::kBatch:
      HandleBatch(message);
      return;
    case FrameType::kQueryEstimate:
      HandleQueryEstimate();
      return;
    case FrameType::kQuerySketch:
      HandleQuerySketch();
      return;
    case FrameType::kStatsQuery:
      HandleStatsQuery();
      return;
    case FrameType::kGoodbye:
      HandleGoodbye();
      return;
    case FrameType::kError: {
      // Client-reported failure: keep what was dispatched, stop the
      // session without a goodbye handshake (nothing left to send, so
      // the session is finished as soon as the outbox is empty).
      ReleaseProducer();
      state_ = State::kClosing;
      if (!wants_write()) finished_ = true;
      return;
    }
    default:
      Abort(Status::ParseError("unexpected frame kind for a client"));
      return;
  }
}

void Connection::HandleHello(const Message& message) {
  HelloFrame hello;
  Status status = DecodeHello(message.payload, &hello);
  if (!status.ok()) {
    Abort(status);
    return;
  }
  if (hello.kind != backend_->kind()) {
    Abort(Status::InvalidArgument(
        backend_->kind() == StreamKind::kRaw
            ? "stream kind mismatch: this server ingests raw u64 elements"
            : "stream kind mismatch: this server ingests structured items"));
    return;
  }
  // Every sketch this server sends (kSketch replies) is a v2 frame.
  if (hello.max_sketch_format < SketchCodec::kFormatV2) {
    Abort(Status::NotSupported(
        "sketch format v" + std::to_string(hello.max_sketch_format) +
        " too old: this server encodes v" +
        std::to_string(SketchCodec::kFormatV2)));
    return;
  }
  producer_ = backend_->MakeProducer();
  WelcomeFrame welcome;
  welcome.kind = backend_->kind();
  welcome.params = backend_->params();
  welcome.initial_credits = limits_.credit_window;
  welcome.max_batch_items = limits_.max_batch_items;
  credits_ = limits_.credit_window;
  state_ = State::kStreaming;
  SendFrame(FrameType::kWelcome, EncodeWelcome(welcome));
}

void Connection::HandleBatch(const Message& message) {
  // Manual timing (not ScopedLatencyUs) so aborted batches never skew
  // the push-latency histogram; only the success path observes.
  const bool timed = obs::Enabled();
  const uint64_t start_us = timed ? NowSteadyUs() : 0;
  if (credits_ == 0) {
    Abort(Status::ResourceExhausted(
        "flow control violated: batch sent with zero credits"));
    return;
  }
  const bool raw = backend_->kind() == StreamKind::kRaw;
  RawBatchFrame raw_batch;
  StructuredBatchFrame structured_batch;
  Status status =
      raw ? DecodeRawBatch(message.payload, limits_.max_batch_items,
                           &raw_batch)
          : DecodeStructuredBatch(message.payload, backend_->universe_bits(),
                                  limits_.max_batch_items, &structured_batch);
  if (!status.ok()) {
    Abort(status);
    return;
  }
  // The seq check must precede the push: an out-of-order batch aborts
  // the session without mutating engine state (and without skewing the
  // accepted-batch stats).
  const uint64_t seq = raw ? raw_batch.seq : structured_batch.seq;
  if (seq != last_seq_ + 1) {
    Abort(Status::ParseError("batch seq out of order"));
    return;
  }
  const uint64_t items =
      raw ? raw_batch.items.size() : structured_batch.items.size();
  status = raw ? producer_->PushRaw(raw_batch.items)
               : producer_->PushStructured(structured_batch.items);
  if (!status.ok()) {
    Abort(status);
    return;
  }
  credits_ -= 1;
  last_seq_ = seq;
  batches_accepted_ += 1;
  items_accepted_ += items;
  ServeObs::Get().batches->Increment();
  ServeObs::Get().items->Increment(items);
  // The ack is what makes the batch "acknowledged": it is only queued
  // after the items were handed to the engine's producer, so a drain
  // that closes every producer cannot lose an acked batch.
  const uint64_t grant = CreditTopUp();
  credits_ += grant;
  SendFrame(FrameType::kAck, EncodeAck(AckFrame{last_seq_, grant}));
  if (credits_ == 0 && credit_stall_start_us_ == 0) {
    // Zero credits and nothing grantable: the peer is stalled until
    // PumpCredits revives it. Timed for mcf0_serve_credit_stall_us.
    credit_stall_start_us_ = NowSteadyUs();
  }
  if (timed) {
    const uint64_t now = NowSteadyUs();
    ServeObs::Get().push_batch_us->Observe(now >= start_us ? now - start_us
                                                           : 0);
  }
}

void Connection::HandleQueryEstimate() {
  EstimateFrame estimate;
  estimate.estimate = backend_->SnapshotEstimate();
  estimate.items_ingested = backend_->items_ingested();
  SendFrame(FrameType::kEstimate, EncodeEstimate(estimate));
}

void Connection::HandleQuerySketch() {
  SketchFrame sketch;
  sketch.blob = backend_->EncodeSnapshot();
  SendFrame(FrameType::kSketch, EncodeSketch(sketch));
}

void Connection::HandleStatsQuery() {
  // A registry snapshot, flattened to the canonical sorted entry list.
  // The report frame's own bytes/frames-out increments land after the
  // snapshot, so a report never counts itself.
  StatsReportFrame report;
  const auto entries = obs::Registry::Global().FlatEntries();
  report.entries.reserve(entries.size());
  for (const auto& [name, value] : entries) {
    report.entries.push_back(StatsEntry{name, value});
  }
  SendFrame(FrameType::kStatsReport, EncodeStatsReport(report));
}

void Connection::HandleGoodbye() {
  ReleaseProducer();
  // kClosing first: SendFrame flushes opportunistically, and an empty
  // outbox afterwards must mark the session finished right away (the
  // peer may keep its socket open arbitrarily long).
  state_ = State::kClosing;
  SendFrame(FrameType::kGoodbyeAck, std::string());
}

void Connection::SendFrame(FrameType type, std::string payload) {
  ServeObs::Get().frames_out[FrameTypeIndex(type)]->Increment();
  outbox_ += WrapMessage(type, std::move(payload));
  // Opportunistic flush: most frames fit the socket buffer, so the
  // common case completes without a POLLOUT round trip.
  OnWritable();
}

void Connection::Abort(const Status& status) {
  ReleaseProducer();
  if (state_ != State::kClosing && !finished_) {
    ServeObs::Get().sessions_errored->Increment();
    const int code = static_cast<int>(status.code());
    if (code >= 0 && code < 9) {
      ServeObs::Get().errors_by_code[code]->Increment();
    }
    SendFrame(FrameType::kError, EncodeError(ErrorFromStatus(status)));
    state_ = State::kClosing;
    if (!wants_write()) finished_ = true;
  }
}

void Connection::ReleaseProducer() {
  if (producer_ != nullptr) {
    producer_->Close();
    producer_.reset();
  }
}

}  // namespace net
}  // namespace mcf0
