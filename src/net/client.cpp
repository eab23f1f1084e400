#include "net/client.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace mcf0 {
namespace net {

PushClient::PushClient(ScopedFd fd, StreamKind kind)
    : fd_(std::move(fd)), kind_(kind) {}

Result<PushClient> PushClient::Connect(StreamKind kind,
                                       const ClientOptions& options) {
  Result<ScopedFd> fd =
      ConnectTcp(options.host, options.port, options.recv_timeout_ms);
  if (!fd.ok()) return fd.status();
  PushClient client(std::move(fd.value()), kind);
  HelloFrame hello;
  hello.kind = kind;
  hello.max_sketch_format = options.max_sketch_format;
  Status status =
      client.SendAll(WrapMessage(FrameType::kHello, EncodeHello(hello)));
  if (!status.ok()) return status;
  Message message;
  status = client.ReadMessage(&message);
  if (!status.ok()) return status;
  if (message.type == FrameType::kError) {
    ErrorFrame error;
    status = DecodeError(message.payload, &error);
    if (!status.ok()) return status;
    return StatusFromError(error);
  }
  if (message.type == FrameType::kDrain) {
    return Status::Unavailable("server is draining; not accepting sessions");
  }
  if (message.type != FrameType::kWelcome) {
    return Status::ParseError("expected welcome as the first server frame");
  }
  status = DecodeWelcome(message.payload, &client.welcome_);
  if (!status.ok()) return status;
  if (client.welcome_.kind != kind) {
    return Status::ParseError("welcome stream kind does not match hello");
  }
  client.credits_ = client.welcome_.initial_credits;
  client.open_ = true;
  return client;
}

Status PushClient::CheckOpen() const {
  if (!open_) {
    return Status::FailedPrecondition("push client session is closed");
  }
  return Status::Ok();
}

Status PushClient::SendAll(std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Status PushClient::ReadMessage(Message* out) {
  for (;;) {
    Status status;
    if (inbox_.Next(out, &status)) return Status::Ok();
    if (!status.ok()) return status;
    char buffer[16 * 1024];
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      inbox_.Append(std::string_view(buffer, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      return Status::Unavailable("server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("timed out waiting for a server frame");
    }
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
}

Status PushClient::HandleBookkeeping(const Message& message, bool* handled) {
  *handled = true;
  switch (message.type) {
    case FrameType::kAck: {
      AckFrame ack;
      const Status status = DecodeAck(message.payload, &ack);
      if (!status.ok()) return status;
      if (ack.seq < acked_seq_ || ack.seq >= next_seq_) {
        return Status::ParseError("ack seq outside the sent window");
      }
      acked_seq_ = ack.seq;
      credits_ += ack.credits;
      return Status::Ok();
    }
    case FrameType::kCredit: {
      CreditFrame credit;
      const Status status = DecodeCredit(message.payload, &credit);
      if (!status.ok()) return status;
      credits_ += credit.credits;
      return Status::Ok();
    }
    case FrameType::kDrain:
      drain_requested_ = true;
      return Status::Ok();
    case FrameType::kError: {
      ErrorFrame error;
      const Status status = DecodeError(message.payload, &error);
      if (!status.ok()) return status;
      open_ = false;
      return StatusFromError(error);
    }
    default:
      *handled = false;
      return Status::Ok();
  }
}

Status PushClient::AwaitCredit() {
  while (credits_ == 0) {
    Message message;
    Status status = ReadMessage(&message);
    if (!status.ok()) return status;
    bool handled = false;
    status = HandleBookkeeping(message, &handled);
    if (!status.ok()) return status;
    if (!handled) {
      return Status::ParseError("unexpected server frame while awaiting ack");
    }
  }
  return Status::Ok();
}

Status PushClient::SendBufferedBatch() {
  Status status = AwaitCredit();
  if (!status.ok()) return status;
  std::string payload;
  if (kind_ == StreamKind::kRaw) {
    RawBatchFrame batch;
    batch.seq = next_seq_;
    batch.items = std::move(raw_buffer_);
    payload = EncodeRawBatch(batch);
    raw_buffer_.clear();
  } else {
    StructuredBatchFrame batch;
    batch.seq = next_seq_;
    batch.items = std::move(structured_buffer_);
    payload = EncodeStructuredBatch(batch);
    structured_buffer_.clear();
  }
  status = SendAll(WrapMessage(FrameType::kBatch, std::move(payload)));
  if (!status.ok()) return status;
  next_seq_ += 1;
  credits_ -= 1;
  return Status::Ok();
}

Status PushClient::Push(std::span<const uint64_t> items) {
  Status status = CheckOpen();
  if (!status.ok()) return status;
  if (kind_ != StreamKind::kRaw) {
    return Status::NotSupported("this session streams structured items");
  }
  for (const uint64_t x : items) {
    raw_buffer_.push_back(x);
    if (raw_buffer_.size() >= welcome_.max_batch_items) {
      status = SendBufferedBatch();
      if (!status.ok()) return status;
    }
  }
  return Status::Ok();
}

Status PushClient::PushItem(StructuredItem item) {
  Status status = CheckOpen();
  if (!status.ok()) return status;
  if (kind_ != StreamKind::kStructured) {
    return Status::NotSupported("this session streams raw u64 elements");
  }
  structured_buffer_.push_back(std::move(item));
  if (structured_buffer_.size() >= welcome_.max_batch_items) {
    return SendBufferedBatch();
  }
  return Status::Ok();
}

Status PushClient::Flush() {
  Status status = CheckOpen();
  if (!status.ok()) return status;
  if (raw_buffer_.empty() && structured_buffer_.empty()) return Status::Ok();
  return SendBufferedBatch();
}

Status PushClient::Request(FrameType query, FrameType reply,
                           const char* mismatch, Message* out) {
  Status status = Flush();
  if (!status.ok()) return status;
  status = SendAll(WrapMessage(query, std::string()));
  if (!status.ok()) return status;
  for (;;) {
    status = ReadMessage(out);
    if (!status.ok()) return status;
    bool handled = false;
    status = HandleBookkeeping(*out, &handled);
    if (!status.ok()) return status;
    if (handled) continue;
    if (out->type != reply) return Status::ParseError(mismatch);
    return Status::Ok();
  }
}

Result<EstimateFrame> PushClient::QueryEstimate() {
  Message message;
  Status status = Request(FrameType::kQueryEstimate, FrameType::kEstimate,
                          "expected an estimate frame", &message);
  if (!status.ok()) return status;
  EstimateFrame estimate;
  status = DecodeEstimate(message.payload, &estimate);
  if (!status.ok()) return status;
  return estimate;
}

Result<std::string> PushClient::QuerySketch() {
  Message message;
  Status status = Request(FrameType::kQuerySketch, FrameType::kSketch,
                          "expected a sketch frame", &message);
  if (!status.ok()) return status;
  SketchFrame sketch;
  status = DecodeSketch(message.payload, &sketch);
  if (!status.ok()) return status;
  return std::move(sketch.blob);
}

Result<StatsReportFrame> PushClient::QueryStats() {
  Message message;
  Status status = Request(FrameType::kStatsQuery, FrameType::kStatsReport,
                          "expected a stats report frame", &message);
  if (!status.ok()) return status;
  StatsReportFrame report;
  status = DecodeStatsReport(message.payload, &report);
  if (!status.ok()) return status;
  return report;
}

Status PushClient::Close() {
  if (!open_) return Status::Ok();
  Status status = Flush();
  if (!status.ok()) {
    open_ = false;
    return status;
  }
  status = SendAll(WrapMessage(FrameType::kGoodbye, std::string()));
  if (!status.ok()) {
    open_ = false;
    return status;
  }
  for (;;) {
    Message message;
    status = ReadMessage(&message);
    if (!status.ok()) {
      open_ = false;
      return status;
    }
    bool handled = false;
    status = HandleBookkeeping(message, &handled);
    if (!status.ok()) {
      open_ = false;
      return status;
    }
    if (handled) continue;
    if (message.type == FrameType::kGoodbyeAck) {
      open_ = false;
      return Status::Ok();
    }
    open_ = false;
    return Status::ParseError("expected a goodbye-ack frame");
  }
}

}  // namespace net
}  // namespace mcf0
