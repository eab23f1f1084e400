#include "net/server.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "engine/sketch_codec.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace net {

namespace {

/// Transport producer over a raw-engine handle.
class RawProducerHandle : public ProducerHandle {
 public:
  explicit RawProducerHandle(ShardedF0Engine::Producer producer)
      : producer_(std::move(producer)) {}

  Status PushRaw(std::span<const uint64_t> items) override {
    return producer_.AddBatch(items);
  }
  Status Close() override { return producer_.Close(); }

 private:
  ShardedF0Engine::Producer producer_;
};

/// Transport producer over a structured-engine handle.
class StructuredProducerHandle : public ProducerHandle {
 public:
  explicit StructuredProducerHandle(ShardedStructuredEngine::Producer producer)
      : producer_(std::move(producer)) {}

  Status PushStructured(std::span<StructuredItem> items) override {
    for (StructuredItem& item : items) {
      const Status status = producer_.Add(std::move(item));
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }
  Status Close() override { return producer_.Close(); }

 private:
  ShardedStructuredEngine::Producer producer_;
};

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::unique_ptr<ProducerHandle> RawEngineBackend::MakeProducer() {
  return std::make_unique<RawProducerHandle>(engine_->MakeProducer());
}

std::string RawEngineBackend::EncodeSnapshot(uint16_t format_version) {
  return SketchCodec::Encode(engine_->SnapshotSketch(), format_version);
}

std::string RawEngineBackend::EncodeFinal(uint16_t format_version) {
  return SketchCodec::Encode(engine_->MergedSketch(), format_version);
}

std::unique_ptr<ProducerHandle> StructuredEngineBackend::MakeProducer() {
  return std::make_unique<StructuredProducerHandle>(engine_->MakeProducer());
}

std::string StructuredEngineBackend::EncodeSnapshot(uint16_t format_version) {
  return SketchCodec::Encode(engine_->SnapshotSketch(), format_version);
}

std::string StructuredEngineBackend::EncodeFinal(uint16_t format_version) {
  return SketchCodec::Encode(engine_->MergedSketch(), format_version);
}

SketchServer::SketchServer(EngineBackend* backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {}

Status SketchServer::Start() {
  Result<ScopedFd> listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());
  Result<int> port = BoundPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = port.value();
  Status status = wake_.Open();
  if (!status.ok()) return status;
  poller_.Watch(listener_.get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Watch(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false);
  return Status::Ok();
}

void SketchServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Notify();
}

Status SketchServer::AcceptAll() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      // Transient per-connection failures (ECONNABORTED, EMFILE...)
      // should not kill the serve loop.
      return Status::Ok();
    }
    ScopedFd conn_fd(fd);
    const Status status = SetNonBlocking(fd);
    if (!status.ok()) continue;  // drop this connection only
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ConnectionLimits limits;
    limits.credit_window = options_.credit_window;
    limits.max_batch_items = options_.max_batch_items;
    auto conn =
        std::make_unique<Connection>(std::move(conn_fd), backend_, limits);
    poller_.Watch(conn->fd(), /*want_read=*/true, conn->wants_write());
    connections_.push_back(std::move(conn));
  }
}

void SketchServer::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  if (listener_.valid()) {
    poller_.Unwatch(listener_.get());
    listener_.Reset();
  }
  for (auto& conn : connections_) conn->StartDrain();
}

void SketchServer::ReapFinished() {
  for (size_t i = 0; i < connections_.size();) {
    Connection& conn = *connections_[i];
    if (!conn.done()) {
      ++i;
      continue;
    }
    poller_.Unwatch(conn.fd());
    connections_served_ += 1;
    batches_accepted_ += conn.batches_accepted();
    items_accepted_ += conn.items_accepted();
    connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void SketchServer::UpdateInterest() {
  for (const auto& conn : connections_) {
    poller_.Watch(conn->fd(), /*want_read=*/true, conn->wants_write());
  }
}

Status SketchServer::Run() {
  std::vector<PollEvent> events;
  int64_t drain_deadline_ms = 0;
  const int64_t start_ms = NowMs();
  int64_t next_metrics_ms =
      options_.metrics_interval_ms > 0
          ? start_ms + options_.metrics_interval_ms
          : 0;
  for (;;) {
    if (next_metrics_ms != 0 && NowMs() >= next_metrics_ms) {
      // One line per interval: the whole registry, machine-parseable,
      // on stderr so it never interleaves with the stdout JSON events.
      const std::string metrics = obs::Registry::Global().SnapshotJson();
      std::fprintf(stderr,
                   "{\"event\":\"metrics\",\"uptime_ms\":%lld,"
                   "\"metrics\":%s}\n",
                   static_cast<long long>(NowMs() - start_ms),
                   metrics.c_str());
      std::fflush(stderr);
      // Schedule from the previous deadline, not from "now", so the
      // period does not silently stretch by snapshot+write cost. If
      // emission fell more than a whole interval behind, skip the
      // missed ticks instead of bursting to catch up.
      next_metrics_ms += options_.metrics_interval_ms;
      const int64_t now_ms = NowMs();
      if (next_metrics_ms <= now_ms) {
        next_metrics_ms = now_ms + options_.metrics_interval_ms;
      }
    }
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
      drain_deadline_ms = NowMs() + options_.drain_timeout_ms;
    }
    if (draining_ && connections_.empty()) break;
    if (draining_ && NowMs() >= drain_deadline_ms) {
      // Stragglers never said goodbye: force-close, keeping everything
      // their producers already dispatched.
      for (auto& conn : connections_) conn->OnHangup();
      ReapFinished();
      break;
    }

    // A short timeout while any client sits below a full window keeps
    // credit grants flowing even with no inbound traffic (the engine
    // drains its queue without notifying the loop). Draining also
    // polls on a bound so the deadline fires.
    int timeout_ms = -1;
    for (const auto& conn : connections_) {
      if (conn->credits_starved()) {
        timeout_ms = 5;
        break;
      }
    }
    if (draining_) {
      const int64_t left = drain_deadline_ms - NowMs();
      const int bounded = static_cast<int>(left < 1 ? 1 : left);
      if (timeout_ms < 0 || bounded < timeout_ms) timeout_ms = bounded;
    }
    if (next_metrics_ms != 0) {
      const int64_t left = next_metrics_ms - NowMs();
      const int bounded = static_cast<int>(left < 1 ? 1 : left);
      if (timeout_ms < 0 || bounded < timeout_ms) timeout_ms = bounded;
    }

    const Status status = poller_.Wait(timeout_ms, &events);
    if (!status.ok()) return status;

    for (const PollEvent& event : events) {
      if (event.fd == wake_.read_fd()) {
        wake_.Drain();
        continue;
      }
      if (listener_.valid() && event.fd == listener_.get()) {
        const Status accepted = AcceptAll();
        if (!accepted.ok()) return accepted;
        continue;
      }
      for (auto& conn : connections_) {
        if (conn->fd() != event.fd) continue;
        if (event.hangup && !event.readable) {
          conn->OnHangup();
        } else {
          if (event.readable) conn->OnReadable();
          if (event.writable && !conn->done()) conn->OnWritable();
        }
        break;
      }
    }

    for (auto& conn : connections_) conn->PumpCredits();
    ReapFinished();
    UpdateInterest();
  }

  // Every session is closed and every producer flushed; materialize the
  // final answers from the merged engine state.
  final_sketch_ = backend_->EncodeFinal(SketchCodec::kDefaultFormatVersion);
  final_estimate_ = backend_->FinalEstimate();
  return Status::Ok();
}

}  // namespace net
}  // namespace mcf0
