// In-process loopback tests for the serve stack (src/net): a real
// SketchServer on a background thread, real PushClients over TCP on
// 127.0.0.1. Covers the PR's acceptance bar: N concurrent push clients
// whose final sketch is byte-identical (post-encode) to single-pass
// ingestion, mid-stream queries racing live pushes, drain losing zero
// acknowledged batches, and the credit window bounding in-flight data
// for a slow consumer.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace net {
namespace {

F0Params RawParams() {
  F0Params params;
  params.n = 24;
  params.eps = 0.8;
  params.delta = 0.2;
  params.seed = 20210625;  // PODS'21
  return params;
}

StructuredF0Params StructuredParams() {
  StructuredF0Params params;
  params.n = 8;
  params.eps = 0.9;
  params.delta = 0.3;
  params.seed = 7;
  return params;
}

/// Deterministic element stream: client `c` contributes elements
/// [c*Stride, c*Stride + Count) under a SplitMix-style mix, so
/// neighboring clients overlap and the union is a genuine multiset.
uint64_t MixedElement(uint64_t i) {
  uint64_t x = i * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return x & ((1ull << 24) - 1);
}

std::vector<uint64_t> ClientSlice(int client, size_t stride, size_t count) {
  std::vector<uint64_t> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    items.push_back(MixedElement(client * stride + i));
  }
  return items;
}

/// A server running on its own thread; joins (asserting Run succeeded)
/// on destruction, so tests must RequestDrain before the end of scope.
class RunningServer {
 public:
  RunningServer(EngineBackend* backend, ServerOptions options)
      : server_(backend, std::move(options)) {
    const Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { run_status_ = server_.Run(); });
  }

  ~RunningServer() {
    if (thread_.joinable()) {
      server_.RequestDrain();
      thread_.join();
    }
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  SketchServer& server() { return server_; }
  int port() const { return server_.port(); }

  /// Drain and wait for the loop to finish; final_* become valid.
  void DrainAndJoin() {
    server_.RequestDrain();
    thread_.join();
  }

 private:
  SketchServer server_;
  std::thread thread_;
  Status run_status_;
};

ClientOptions Dial(int port) {
  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.recv_timeout_ms = 30'000;
  return options;
}

// ---- acceptance: concurrent pushes == single pass -------------------------

TEST(Serve, FourRawClientsAreByteIdenticalToSinglePass) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 3);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.max_batch_items = 256;
  RunningServer running(&backend, options);

  constexpr int kClients = 4;
  constexpr size_t kStride = 2'000;  // overlap: stride < count
  constexpr size_t kCount = 3'000;
  std::vector<Status> outcomes(kClients);
  std::vector<std::thread> pushers;
  for (int c = 0; c < kClients; ++c) {
    pushers.emplace_back([c, port = running.port(), &outcomes] {
      Result<PushClient> connected =
          PushClient::Connect(StreamKind::kRaw, Dial(port));
      if (!connected.ok()) {
        outcomes[c] = connected.status();
        return;
      }
      PushClient client = std::move(connected).value();
      const std::vector<uint64_t> items = ClientSlice(c, kStride, kCount);
      Status status = client.Push(items);
      if (status.ok()) status = client.Close();
      outcomes[c] = status;
    });
  }
  for (std::thread& t : pushers) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(outcomes[c].ok()) << "client " << c << ": "
                                  << outcomes[c].ToString();
  }
  running.DrainAndJoin();

  // Single pass over the union stream, same params (=> same hashes).
  F0Estimator single(params);
  for (int c = 0; c < kClients; ++c) {
    for (const uint64_t x : ClientSlice(c, kStride, kCount)) single.Add(x);
  }
  EXPECT_EQ(running.server().final_sketch(), SketchCodec::Encode(single));
  EXPECT_EQ(running.server().final_estimate(), single.Estimate());
  EXPECT_EQ(running.server().items_accepted(), kClients * kCount);
  EXPECT_EQ(running.server().connections_served(),
            static_cast<uint64_t>(kClients));
}

std::vector<StructuredItem> StructuredStream(int salt, size_t count) {
  std::vector<StructuredItem> items;
  for (size_t k = 0; k < count; ++k) {
    const uint64_t h = MixedElement(salt * 1'000 + k);
    switch (k % 4) {
      case 0: {  // a one- or two-term DNF group over distinct variables
        // The two literals draw from disjoint variable ranges ([0,3] and
        // [4,7]) so the term can never be contradictory: Term::Make
        // returning nullopt would make the * below undefined behavior.
        std::vector<Term> terms;
        terms.push_back(*Term::Make(
            {Lit(static_cast<int>(h % 4), (h & 8) != 0),
             Lit(static_cast<int>((h / 16) % 4 + 4), (h & 64) != 0)}));
        if (h & 1) {
          terms.push_back(*Term::Make({Lit(static_cast<int>(h % 4), false)}));
        }
        items.emplace_back(std::move(terms));
        break;
      }
      case 1: {  // a 2x4-bit range
        MultiDimRange range(2, 4);
        const uint64_t lo0 = h % 8;
        range.SetDim(0, DimRange{lo0, lo0 + h % (16 - lo0), 0});
        range.SetDim(1, DimRange{h / 16 % 4, 12 + h % 4, (h & 2) ? 1 : 0});
        items.emplace_back(std::move(range));
        break;
      }
      case 2: {  // an affine space of rank 1..3 over n=8
        const int rank = 1 + static_cast<int>(h % 3);
        Gf2Matrix a(rank, 8);
        BitVec b(rank);
        for (int r = 0; r < rank; ++r) {
          for (int col = 0; col < 8; ++col) {
            a.Set(r, col, ((h >> ((r * 7 + col) % 23)) & 1) != 0);
          }
          a.Set(r, r, true);  // keep the rows nonzero
          b.Set(r, ((h >> r) & 2) != 0);
        }
        items.emplace_back(AffineSpaceItem{std::move(a), std::move(b)});
        break;
      }
      default: {  // a singleton element
        BitVec x(8);
        for (int bit = 0; bit < 8; ++bit) x.Set(bit, ((h >> bit) & 1) != 0);
        items.emplace_back(std::move(x));
        break;
      }
    }
  }
  return items;
}

TEST(Serve, StructuredClientsAreByteIdenticalToSinglePass) {
  const StructuredF0Params params = StructuredParams();
  ShardedStructuredEngine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.max_batch_items = 16;
  RunningServer running(&backend, options);

  constexpr int kClients = 2;
  constexpr size_t kCount = 60;
  std::vector<Status> outcomes(kClients);
  std::vector<std::thread> pushers;
  for (int c = 0; c < kClients; ++c) {
    pushers.emplace_back([c, port = running.port(), &outcomes] {
      Result<PushClient> connected =
          PushClient::Connect(StreamKind::kStructured, Dial(port));
      if (!connected.ok()) {
        outcomes[c] = connected.status();
        return;
      }
      PushClient client = std::move(connected).value();
      Status status;
      for (StructuredItem& item : StructuredStream(c, kCount)) {
        status = client.PushItem(std::move(item));
        if (!status.ok()) break;
      }
      if (status.ok()) status = client.Close();
      outcomes[c] = status;
    });
  }
  for (std::thread& t : pushers) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(outcomes[c].ok()) << "client " << c << ": "
                                  << outcomes[c].ToString();
  }
  running.DrainAndJoin();

  StructuredF0 single(params);
  for (int c = 0; c < kClients; ++c) {
    for (const StructuredItem& item : StructuredStream(c, kCount)) {
      AbsorbItem(single, item);
    }
  }
  EXPECT_EQ(running.server().final_sketch(), SketchCodec::Encode(single));
  EXPECT_EQ(running.server().items_accepted(), kClients * kCount);
}

// ---- live queries racing pushes -------------------------------------------

TEST(Serve, MidStreamQueryRacesLivePushes) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.max_batch_items = 128;
  RunningServer running(&backend, options);

  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();

  const std::vector<uint64_t> items = ClientSlice(0, 0, 2'000);
  constexpr size_t kHalf = 1'000;
  ASSERT_TRUE(
      client.Push(std::span<const uint64_t>(items.data(), kHalf)).ok());
  ASSERT_TRUE(client.Flush().ok());

  // The query races the engine workers; the snapshot answers from
  // whatever merged state exists right now, without draining anything.
  Result<EstimateFrame> estimate = client.QueryEstimate();
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_GE(estimate.value().estimate, 0.0);
  EXPECT_LE(estimate.value().items_ingested, kHalf);

  Result<std::string> snapshot = client.QuerySketch();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<SketchVariant> decoded = SketchVariant::Decode(snapshot.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().structured());

  // The session keeps streaming after the queries.
  ASSERT_TRUE(client
                  .Push(std::span<const uint64_t>(items.data() + kHalf,
                                                  items.size() - kHalf))
                  .ok());
  ASSERT_TRUE(client.Close().ok());
  EXPECT_EQ(client.batches_acked(), client.batches_sent());
  running.DrainAndJoin();

  F0Estimator single(params);
  for (const uint64_t x : items) single.Add(x);
  EXPECT_EQ(running.server().final_sketch(), SketchCodec::Encode(single));
}

// ---- drain semantics -------------------------------------------------------

TEST(Serve, DrainKeepsEveryAcknowledgedBatch) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.credit_window = 16;  // roomy: drain stops new grants
  options.max_batch_items = 64;
  RunningServer running(&backend, options);

  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();

  std::vector<uint64_t> pushed;
  const auto push_batch = [&](int b) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(MixedElement(b * 64 + i));
    Status status = client.Push(batch);
    if (status.ok()) status = client.Flush();
    ASSERT_TRUE(status.ok()) << status.ToString();
    pushed.insert(pushed.end(), batch.begin(), batch.end());
  };
  for (int b = 0; b < 5; ++b) push_batch(b);

  // Drain arrives mid-session. The announcement is only guaranteed to
  // reach sessions still alive when the server's loop processes the
  // request, so round-trip queries (answered while draining) until the
  // client has read the kDrain frame — then keep pushing: credited
  // batches still count.
  running.server().RequestDrain();
  for (int spin = 0; !client.drain_requested(); ++spin) {
    ASSERT_LT(spin, 100) << "kDrain never reached a live session";
    ASSERT_TRUE(client.QueryEstimate().ok());
  }
  for (int b = 5; b < 10; ++b) push_batch(b);

  ASSERT_TRUE(client.Close().ok());
  // Close's goodbye-ack proves every batch was acknowledged.
  EXPECT_EQ(client.batches_acked(), client.batches_sent());
  EXPECT_EQ(client.batches_sent(), 10u);
  EXPECT_TRUE(client.drain_requested());
  running.DrainAndJoin();

  // Zero acknowledged loss: the final sketch equals a single pass over
  // everything that was acked — including the batches pushed after the
  // drain began.
  F0Estimator single(params);
  for (const uint64_t x : pushed) single.Add(x);
  EXPECT_EQ(running.server().final_sketch(), SketchCodec::Encode(single));
  EXPECT_EQ(running.server().batches_accepted(), 10u);
}

TEST(Serve, DrainRefusesNewSessions) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 1);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  RunningServer running(&backend, options);

  // Hold one live session so the drain has something to wait on.
  Result<PushClient> first =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  PushClient held = std::move(first).value();

  running.server().RequestDrain();

  // New sessions now fail: either the listener is already closed
  // (connect refused) or the greeting is a drain announcement.
  ClientOptions options2 = Dial(running.port());
  options2.recv_timeout_ms = 2'000;
  for (int attempt = 0; attempt < 50; ++attempt) {
    Result<PushClient> late = PushClient::Connect(StreamKind::kRaw, options2);
    if (!late.ok()) {
      SUCCEED();
      break;
    }
    // Raced ahead of the drain flag; retry until the server acts on it.
    ASSERT_LT(attempt, 49) << "server kept accepting sessions after drain";
  }

  EXPECT_TRUE(held.Close().ok());
  running.DrainAndJoin();
}

// ---- flow control ----------------------------------------------------------

TEST(Serve, HonestClientStaysInsideTheCreditWindow) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.credit_window = 2;
  options.max_batch_items = 64;
  RunningServer running(&backend, options);

  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();
  EXPECT_EQ(client.welcome().initial_credits, 2u);

  std::vector<uint64_t> batch(64);
  for (int b = 0; b < 40; ++b) {
    for (int i = 0; i < 64; ++i) batch[i] = MixedElement(b * 64 + i);
    ASSERT_TRUE(client.Push(batch).ok());
    ASSERT_TRUE(client.Flush().ok());
    // The flow-control bound: the client can never hold more credits
    // than the window, so its unacknowledged in-flight batches — the
    // server's worst-case per-connection buffering — are window-bounded.
    EXPECT_LE(client.credits(), 2u);
    EXPECT_LE(client.batches_sent() - client.batches_acked(), 2u);
  }
  ASSERT_TRUE(client.Close().ok());
  EXPECT_EQ(client.batches_acked(), 40u);
  running.DrainAndJoin();
  EXPECT_EQ(running.server().items_accepted(), 40u * 64u);
}

/// An EngineBackend whose queue always reports saturation: the credit
/// low-watermark rule must stop all grants, and a client that pushes
/// anyway must be cut off with kResourceExhausted.
class SaturatedBackend : public EngineBackend {
 public:
  class NullProducer : public ProducerHandle {
   public:
    Status PushRaw(std::span<const uint64_t>) override {
      return Status::Ok();
    }
    Status Close() override { return Status::Ok(); }
  };

  StreamKind kind() const override { return StreamKind::kRaw; }
  std::variant<F0Params, StructuredF0Params> params() const override {
    return RawParams();
  }
  int universe_bits() const override { return 24; }
  std::unique_ptr<ProducerHandle> MakeProducer() override {
    return std::make_unique<NullProducer>();
  }
  uint64_t queued_batches() override { return 64; }  // == capacity: stuck
  uint64_t queue_capacity() const override { return 64; }
  uint64_t items_ingested() const override { return 0; }
  double SnapshotEstimate() override { return 0.0; }
  std::string EncodeSnapshot() override { return {}; }
  double FinalEstimate() override { return 0.0; }
  std::string EncodeFinal() override { return {}; }
};

/// Sends all of `bytes` on a blocking socket.
void SendAllOrDie(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    sent += static_cast<size_t>(n);
  }
}

/// Blocks for the next frame on a raw socket (test-side peer that
/// deliberately ignores the PushClient's flow-control discipline).
Status ReadFrameBlocking(int fd, FrameBuffer* inbox, Message* out) {
  Status status;
  for (;;) {
    if (inbox->Next(out, &status)) return Status::Ok();
    if (!status.ok()) return status;
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return Status::Unavailable("connection closed");
    inbox->Append(std::string_view(buffer, static_cast<size_t>(n)));
  }
}

TEST(Serve, SlowConsumerStopsGrantsAndViolatorsAreCutOff) {
  SaturatedBackend backend;
  ServerOptions options;
  options.credit_window = 2;
  options.max_batch_items = 64;
  RunningServer running(&backend, options);

  Result<ScopedFd> dialed = ConnectTcp("127.0.0.1", running.port(), 10'000);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  ScopedFd fd = std::move(dialed).value();
  FrameBuffer inbox;

  HelloFrame hello;
  hello.kind = StreamKind::kRaw;
  SendAllOrDie(fd.get(), WrapMessage(FrameType::kHello, EncodeHello(hello)));
  Message message;
  ASSERT_TRUE(ReadFrameBlocking(fd.get(), &inbox, &message).ok());
  ASSERT_EQ(message.type, FrameType::kWelcome);
  WelcomeFrame welcome;
  ASSERT_TRUE(DecodeWelcome(message.payload, &welcome).ok());
  ASSERT_EQ(welcome.initial_credits, 2u);

  // Spend the window, then violate it: a third batch with zero credits.
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    RawBatchFrame batch;
    batch.seq = seq;
    batch.items = {seq};
    SendAllOrDie(fd.get(),
                 WrapMessage(FrameType::kBatch, EncodeRawBatch(batch)));
  }

  // The saturated queue means both acks carry a zero grant...
  for (uint64_t seq = 1; seq <= 2; ++seq) {
    ASSERT_TRUE(ReadFrameBlocking(fd.get(), &inbox, &message).ok());
    ASSERT_EQ(message.type, FrameType::kAck);
    AckFrame ack;
    ASSERT_TRUE(DecodeAck(message.payload, &ack).ok());
    EXPECT_EQ(ack.seq, seq);
    EXPECT_EQ(ack.credits, 0u) << "grant while the engine queue is full";
  }
  // ...and the third batch is a protocol violation.
  ASSERT_TRUE(ReadFrameBlocking(fd.get(), &inbox, &message).ok());
  ASSERT_EQ(message.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(DecodeError(message.payload, &error).ok());
  EXPECT_EQ(error.code, StatusCode::kResourceExhausted);
  EXPECT_NE(error.message.find("flow control violated"), std::string::npos);

  fd.Reset();
  running.DrainAndJoin();
}

// ---- telemetry: the kStatsQuery frame pair ---------------------------------

TEST(Serve, StatsQueryReportsExactCountersAfterConcurrentPushes) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  // Zero the process-wide registry so every asserted counter below is
  // exactly what this test's traffic produced.
  obs::Registry::Global().ResetForTest();
  ServerOptions options;
  options.max_batch_items = 64;
  RunningServer running(&backend, options);

  constexpr int kClients = 3;
  constexpr uint64_t kBatches = 5;
  constexpr uint64_t kPerBatch = 64;
  std::vector<Status> outcomes(kClients);
  std::vector<std::thread> pushers;
  for (int c = 0; c < kClients; ++c) {
    pushers.emplace_back([c, port = running.port(), &outcomes] {
      Result<PushClient> connected =
          PushClient::Connect(StreamKind::kRaw, Dial(port));
      if (!connected.ok()) {
        outcomes[c] = connected.status();
        return;
      }
      PushClient client = std::move(connected).value();
      Status status;
      for (uint64_t b = 0; b < kBatches && status.ok(); ++b) {
        std::vector<uint64_t> batch;
        for (uint64_t i = 0; i < kPerBatch; ++i) {
          batch.push_back(MixedElement((c * kBatches + b) * kPerBatch + i));
        }
        status = client.Push(batch);
        if (status.ok()) status = client.Flush();
      }
      if (status.ok()) status = client.Close();
      outcomes[c] = status;
    });
  }
  for (std::thread& t : pushers) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(outcomes[c].ok()) << "client " << c << ": "
                                  << outcomes[c].ToString();
  }

  // Every pusher's Close() saw its goodbye-ack, so all batches were
  // accepted before this fresh session asks for the totals.
  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();
  Result<StatsReportFrame> queried = client.QueryStats();
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  const StatsReportFrame& report = queried.value();

  // The wire contract: strictly sorted, non-empty, every name legal.
  ASSERT_FALSE(report.entries.empty());
  for (size_t i = 1; i < report.entries.size(); ++i) {
    EXPECT_LT(report.entries[i - 1].name, report.entries[i].name);
  }

  constexpr uint64_t kTotalBatches = kClients * kBatches;
  EXPECT_EQ(report.Find("mcf0_serve_batches_total"), kTotalBatches);
  EXPECT_EQ(report.Find("mcf0_serve_items_total"), kTotalBatches * kPerBatch);
  EXPECT_EQ(report.Find("mcf0_serve_frames_in_total{type=\"batch\"}"),
            kTotalBatches);
  EXPECT_EQ(report.Find("mcf0_serve_frames_out_total{type=\"ack\"}"),
            kTotalBatches);
  // The stats session itself is the +1 on the session counters.
  EXPECT_EQ(report.Find("mcf0_serve_sessions_opened_total"),
            uint64_t{kClients} + 1);
  EXPECT_EQ(report.Find("mcf0_serve_sessions_active"), 1u);
  EXPECT_EQ(report.Find("mcf0_serve_sessions_errored_total"), 0u);
  EXPECT_EQ(report.Find("mcf0_serve_frames_in_total{type=\"hello\"}"),
            uint64_t{kClients} + 1);
  EXPECT_EQ(report.Find("mcf0_serve_frames_out_total{type=\"welcome\"}"),
            uint64_t{kClients} + 1);
  EXPECT_EQ(report.Find("mcf0_serve_frames_in_total{type=\"goodbye\"}"),
            uint64_t{kClients});
  EXPECT_EQ(report.Find("mcf0_serve_frames_in_total{type=\"stats_query\"}"),
            1u);
  // The report counts the frames that produced it, not itself: it was
  // snapshotted before the kStatsReport frame went out.
  EXPECT_EQ(report.Find("mcf0_serve_frames_out_total{type=\"stats_report\"}"),
            0u);
  // A clean run sends zero error frames of any code.
  for (const StatsEntry& entry : report.entries) {
    if (entry.name.rfind("mcf0_serve_error_frames_total", 0) == 0) {
      EXPECT_EQ(entry.value, 0u) << entry.name;
    }
  }
  // Byte counters move; the engine may still be absorbing, so its item
  // counter is only bounded, not pinned.
  EXPECT_GT(report.Find("mcf0_serve_bytes_in_total").value_or(0), 0u);
  EXPECT_GT(report.Find("mcf0_serve_bytes_out_total").value_or(0), 0u);
  EXPECT_LE(report.Find("mcf0_engine_items_absorbed_total").value_or(0),
            kTotalBatches * kPerBatch);

  ASSERT_TRUE(client.Close().ok());
  running.DrainAndJoin();

  // After the drain every batch is absorbed, and the server's own
  // summary agrees with the registry it exposes.
  EXPECT_EQ(running.server().batches_accepted(), kTotalBatches);
  EXPECT_EQ(running.server().items_accepted(), kTotalBatches * kPerBatch);
  EXPECT_EQ(obs::Registry::Global()
                .GetCounter("mcf0_serve_batches_total")
                ->Value(),
            kTotalBatches);
  EXPECT_EQ(obs::Registry::Global()
                .GetCounter("mcf0_engine_items_absorbed_total")
                ->Value(),
            kTotalBatches * kPerBatch);
}

TEST(Serve, StatsQueryMidStreamRacesLivePushes) {
  // A stats query on a session that is itself pushing: the snapshot is
  // taken while batches race through the engine, so only monotone
  // relations can be asserted — but the query must answer, and the
  // session must keep streaming afterwards.
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 2);
  ShardedEngineBackend backend(&engine);
  obs::Registry::Global().ResetForTest();
  ServerOptions options;
  options.max_batch_items = 128;
  RunningServer running(&backend, options);

  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();

  const std::vector<uint64_t> items = ClientSlice(0, 0, 1'000);
  ASSERT_TRUE(client.Push(items).ok());
  Result<StatsReportFrame> queried = client.QueryStats();
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  const uint64_t mid_items =
      queried.value().Find("mcf0_serve_items_total").value_or(0);
  EXPECT_LE(mid_items, items.size());

  ASSERT_TRUE(client.Push(items).ok());
  ASSERT_TRUE(client.Close().ok());
  running.DrainAndJoin();
  EXPECT_EQ(running.server().items_accepted(), 2 * items.size());
}

// ---- failure modes ---------------------------------------------------------

TEST(Serve, StreamKindMismatchIsRejectedAtHello) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 1);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  RunningServer running(&backend, options);

  Result<PushClient> mismatched =
      PushClient::Connect(StreamKind::kStructured, Dial(running.port()));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().message().find("stream kind mismatch"),
            std::string::npos);
  running.DrainAndJoin();
}

TEST(Serve, SilentServerSurfacesDeadlineExceeded) {
  // A listener that accepts into its backlog but never speaks: the
  // client's hello gets no welcome, and SO_RCVTIMEO turns the stalled
  // read into kDeadlineExceeded rather than a hang.
  Result<ScopedFd> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<int> port = BoundPort(listener.value().get());
  ASSERT_TRUE(port.ok());

  ClientOptions options = Dial(port.value());
  options.recv_timeout_ms = 200;
  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, options);
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.status().code(), StatusCode::kDeadlineExceeded);
}

/// Servers encode v2 sketches only, so a client that can only accept
/// format v1 is turned away at negotiation with a status rather than
/// handed frames it cannot read. The rejection is per-session: v2
/// clients keep being served, and their sketch queries answer with v2
/// frames.
void ExpectV1OnlyClientRejectedAtHello(EngineBackend* backend,
                                       StreamKind kind) {
  RunningServer running(backend, ServerOptions());
  ClientOptions v1_only = Dial(running.port());
  v1_only.max_sketch_format = 1;
  Result<PushClient> rejected = PushClient::Connect(kind, v1_only);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(rejected.status().message().find("too old"), std::string::npos);

  Result<PushClient> ok = PushClient::Connect(kind, Dial(running.port()));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  Result<std::string> snapshot = ok.value().QuerySketch();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(SketchCodec::PeekFormatVersion(snapshot.value()).value(),
            SketchCodec::kFormatV2);
  EXPECT_TRUE(ok.value().Close().ok());
  running.DrainAndJoin();
}

TEST(Serve, StructuredServerRejectsV1OnlyClientAtHello) {
  ShardedStructuredEngine engine(StructuredParams(), 1);
  ShardedEngineBackend backend(&engine);
  ExpectV1OnlyClientRejectedAtHello(&backend, StreamKind::kStructured);
}

TEST(Serve, RawServerRejectsV1OnlyClientAtHello) {
  ShardedF0Engine engine(RawParams(), 1);
  ShardedEngineBackend backend(&engine);
  ExpectV1OnlyClientRejectedAtHello(&backend, StreamKind::kRaw);
}

TEST(Serve, OutOfOrderBatchIsRejectedBeforeEngineMutation) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 1);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  options.max_batch_items = 64;
  RunningServer running(&backend, options);

  Result<ScopedFd> dialed = ConnectTcp("127.0.0.1", running.port(), 10'000);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  ScopedFd fd = std::move(dialed).value();
  FrameBuffer inbox;

  HelloFrame hello;
  hello.kind = StreamKind::kRaw;
  SendAllOrDie(fd.get(), WrapMessage(FrameType::kHello, EncodeHello(hello)));
  Message message;
  ASSERT_TRUE(ReadFrameBlocking(fd.get(), &inbox, &message).ok());
  ASSERT_EQ(message.type, FrameType::kWelcome);

  // The first batch must carry seq 1; seq 2 is a protocol violation.
  RawBatchFrame batch;
  batch.seq = 2;
  batch.items = {1, 2, 3};
  SendAllOrDie(fd.get(),
               WrapMessage(FrameType::kBatch, EncodeRawBatch(batch)));
  ASSERT_TRUE(ReadFrameBlocking(fd.get(), &inbox, &message).ok());
  ASSERT_EQ(message.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(DecodeError(message.payload, &error).ok());
  EXPECT_NE(error.message.find("batch seq out of order"), std::string::npos);

  fd.Reset();
  running.DrainAndJoin();

  // The violating batch's items never reached the engine: the final
  // sketch equals a pass over nothing, and the stats agree.
  F0Estimator untouched(params);
  EXPECT_EQ(running.server().final_sketch(), SketchCodec::Encode(untouched));
  EXPECT_EQ(running.server().batches_accepted(), 0u);
  EXPECT_EQ(running.server().items_accepted(), 0u);
}

TEST(Serve, ClosedClientRefusesFurtherUse) {
  const F0Params params = RawParams();
  ShardedF0Engine engine(params, 1);
  ShardedEngineBackend backend(&engine);
  ServerOptions options;
  RunningServer running(&backend, options);

  Result<PushClient> connected =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PushClient client = std::move(connected).value();
  const uint64_t x = 42;
  ASSERT_TRUE(client.Push({&x, 1}).ok());
  ASSERT_TRUE(client.Close().ok());
  // Close is idempotent; everything else is now a precondition failure.
  EXPECT_TRUE(client.Close().ok());
  EXPECT_EQ(client.Push({&x, 1}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.QueryEstimate().status().code(),
            StatusCode::kFailedPrecondition);
  running.DrainAndJoin();
}

/// CPU time consumed so far by every thread of this process, in seconds.
double ProcessCpuSeconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

TEST(Serve, OutOfDescriptorsBacksOffInsteadOfSpinning) {
  // accept() failing with EMFILE leaves the connection queued, so the
  // level-triggered listener stays readable: a loop that polls it again
  // at once burns a whole core. The server must back off instead, and
  // accept again once descriptors free up.
  ShardedF0Engine engine(RawParams(), 1);
  ShardedEngineBackend backend(&engine);
  RunningServer running(&backend, ServerOptions());

  ScopedFd queued(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(queued.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(running.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // Cap the descriptor table at its lowest free slot: from here on no
  // thread of this process can open a descriptor, accept() included.
  const int lowest_free = ::fcntl(queued.get(), F_DUPFD, 0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  // The kernel completes the handshake and queues the connection; the
  // server's accept() of it fails with EMFILE.
  const int connected = ::connect(
      queued.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_spent = ProcessCpuSeconds() - cpu_before;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(connected, 0);
  EXPECT_LT(cpu_spent, 0.1) << "serve loop spun on an unacceptable listener";

  // With descriptors back, the server accepts again and serves a session.
  Result<PushClient> client =
      PushClient::Connect(StreamKind::kRaw, Dial(running.port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<uint64_t> items = ClientSlice(0, 0, 100);
  ASSERT_TRUE(client.value().Push(items).ok());
  ASSERT_TRUE(client.value().Close().ok());
  queued.Reset();
  running.DrainAndJoin();
  EXPECT_EQ(running.server().items_accepted(), items.size());
}

}  // namespace
}  // namespace net
}  // namespace mcf0
