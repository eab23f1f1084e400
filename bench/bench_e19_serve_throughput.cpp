// E19 — serve throughput: the networked sketch service (src/net) under
// concurrent loopback pushers, plus live-query latency while ingestion
// is running.
//
//   1. push throughput: P `PushClient`s stream a raw u64 stream into one
//      SketchServer over 127.0.0.1 TCP (credit window 8, the default);
//      the table reports aggregate items/sec per client count;
//   2. query latency: a dedicated session issues QueryEstimate against
//      the live engine while the pushers run; the query count and p50/p99
//      microseconds. A percentile is reported only when at least 10
//      queries lie beyond it; otherwise the row shows the highest
//      percentile that has them, or n/a.
//
// Client counts above nproc - 1 are skipped (each pusher wants a core
// beside the server's poll thread); the first row always runs.
//
// Because the protocol acks only after items reach an engine producer
// and the engine's merge is an exact union, the drained server's sketch
// must be byte-identical to a single-pass sketch over the union stream;
// any mismatch exits 1 (this is the CI gate). `--smoke` runs a
// miniature version and writes the same BENCH_e19_serve.json summary.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "streaming/f0_sketch.hpp"

namespace {

using namespace mcf0;
using namespace mcf0::bench;

F0Params BenchParams() {
  F0Params params;
  params.n = 32;
  params.eps = 0.8;
  params.delta = 0.2;
  params.seed = 9;
  params.rows_override = 13;  // reduced rows keep the table fast (cf. E17)
  return params;
}

std::vector<uint64_t> MakeStream(size_t length, uint64_t support) {
  Rng rng(4242);
  std::vector<uint64_t> xs(length);
  for (auto& x : xs) x = rng.NextBelow(support);
  return xs;
}

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, a "tail" is a handful of queries (one query reads as its own
/// p50 and p99).
constexpr size_t kMinSamplesBeyond = 10;

/// A latency percentile as reported: `percentile` is the one shown, or -1
/// for n/a.
struct Latency {
  int percentile = -1;
  double us = 0.0;
};

/// The `requested` percentile of `sorted` when at least kMinSamplesBeyond
/// samples lie beyond it, else the highest integer percentile below it
/// that has them, else n/a.
Latency ReportPercentile(const std::vector<double>& sorted, int requested) {
  if (sorted.size() <= kMinSamplesBeyond) return {};
  const size_t last = sorted.size() - 1;
  for (int p = requested; p >= 0; --p) {
    const size_t index = static_cast<size_t>(p) * last / 100;
    if (last - index >= kMinSamplesBeyond) return {p, sorted[index]};
  }
  return {};
}

/// Table cell: "812.3us", "812.3us (p95)" after a fallback, or "n/a".
std::string FormatLatency(const Latency& l, int requested) {
  if (l.percentile < 0) return "n/a";
  char buffer[48];
  if (l.percentile == requested) {
    std::snprintf(buffer, sizeof(buffer), "%.1fus", l.us);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1fus (p%d)", l.us, l.percentile);
  }
  return buffer;
}

/// JSON value: {"percentile": p, "us": x}, or null for n/a.
std::string LatencyJson(const Latency& l) {
  if (l.percentile < 0) return "null";
  return "{\"percentile\": " + std::to_string(l.percentile) +
         ", \"us\": " + std::to_string(l.us) + "}";
}

struct Measured {
  double items_per_sec = 0.0;
  size_t queries = 0;
  Latency query_p50;
  Latency query_p99;
};

/// One serve round: `clients` pushers split `stream` evenly; one extra
/// session queries in a loop until the pushers finish. Gates the final
/// sketch against `expected_bytes` (exit 1 on any protocol error or
/// mismatch).
Measured ServeRound(const F0Params& params, const std::vector<uint64_t>& stream,
                    int clients, const std::string& expected_bytes) {
  ShardedF0Engine engine(params, 4);
  net::ShardedEngineBackend backend(&engine);
  net::ServerOptions options;
  options.max_batch_items = 2048;
  net::SketchServer server(&backend, options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "E19: server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  std::thread loop([&server] { (void)server.Run(); });

  net::ClientOptions dial;
  dial.port = server.port();
  std::vector<std::thread> pushers;
  std::vector<Status> outcomes(static_cast<size_t>(clients));
  std::atomic<int> running{clients};
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    pushers.emplace_back([c, clients, &stream, &dial, &outcomes, &running] {
      Result<net::PushClient> connected =
          net::PushClient::Connect(net::StreamKind::kRaw, dial);
      Status status = connected.status();
      if (status.ok()) {
        net::PushClient client = std::move(connected).value();
        const size_t per = stream.size() / static_cast<size_t>(clients);
        const size_t begin = static_cast<size_t>(c) * per;
        const size_t end = c + 1 == clients ? stream.size() : begin + per;
        status = client.Push(std::span<const uint64_t>(stream.data() + begin,
                                                       end - begin));
        if (status.ok()) status = client.Close();
      }
      outcomes[static_cast<size_t>(c)] = status;
      running.fetch_sub(1);
    });
  }

  // Live queries racing the pushers, from a session of their own.
  std::vector<double> latencies_us;
  {
    Result<net::PushClient> connected =
        net::PushClient::Connect(net::StreamKind::kRaw, dial);
    if (connected.ok()) {
      net::PushClient querier = std::move(connected).value();
      while (running.load() > 0) {
        WallTimer query_timer;
        Result<net::EstimateFrame> estimate = querier.QueryEstimate();
        if (!estimate.ok()) break;
        latencies_us.push_back(query_timer.Micros());
      }
      (void)querier.Close();
    }
  }

  for (std::thread& t : pushers) t.join();
  const double elapsed = timer.Seconds();
  server.RequestDrain();
  loop.join();

  for (const Status& outcome : outcomes) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "E19: pusher failed: %s\n",
                   outcome.ToString().c_str());
      std::exit(1);
    }
  }
  if (server.final_sketch() != expected_bytes) {
    std::fprintf(stderr,
                 "E19: drained sketch differs from single-pass bytes\n");
    std::exit(1);
  }

  Measured m;
  m.items_per_sec = static_cast<double>(stream.size()) / elapsed;
  std::sort(latencies_us.begin(), latencies_us.end());
  m.queries = latencies_us.size();
  m.query_p50 = ReportPercentile(latencies_us, 50);
  m.query_p99 = ReportPercentile(latencies_us, 99);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  Banner("E19 - serve throughput (networked sketch service, src/net)",
         "remote sketching composes: push-ack flow control loses nothing, "
         "so the served sketch equals the single-pass sketch exactly");

  const F0Params params = BenchParams();
  const size_t length = smoke ? 20'000 : 400'000;
  const uint64_t support = smoke ? 5'000 : 100'000;
  const std::vector<uint64_t> stream = MakeStream(length, support);

  F0Estimator single(params);
  for (const uint64_t x : stream) single.Add(x);
  const std::string expected = SketchCodec::Encode(single);

  const int max_clients =
      static_cast<int>(std::thread::hardware_concurrency()) - 1;
  std::vector<int> client_counts;
  for (const int clients :
       smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8}) {
    if (client_counts.empty() || clients <= max_clients) {
      client_counts.push_back(clients);
    } else {
      std::printf("skipping %d clients: above nproc - 1 = %d\n", clients,
                  max_clients);
    }
  }

  std::printf("%8s  %14s  %8s  %16s  %16s\n", "clients", "items/sec",
              "queries", "query p50", "query p99");
  Measured last;
  for (const int clients : client_counts) {
    last = ServeRound(params, stream, clients, expected);
    std::printf("%8d  %14.0f  %8zu  %16s  %16s\n", clients,
                last.items_per_sec, last.queries,
                FormatLatency(last.query_p50, 50).c_str(),
                FormatLatency(last.query_p99, 99).c_str());
  }
  std::printf("served sketch == single-pass sketch (byte-identical): yes\n");

  // Telemetry overhead: the full serve path with the registry live vs.
  // the runtime kill switch (every metric op reduced to one relaxed
  // load + branch).
  // Rounds alternate on/off so drift hits both arms alike; medians of 5
  // are compared and the CI gate demands the live registry stays within
  // 3% of the disabled baseline.
  const int overhead_clients = smoke ? 2 : 4;
  std::vector<double> on_rates;
  std::vector<double> off_rates;
  for (int round = 0; round < 5; ++round) {
    obs::SetEnabled(true);
    on_rates.push_back(
        ServeRound(params, stream, overhead_clients, expected).items_per_sec);
    obs::SetEnabled(false);
    off_rates.push_back(
        ServeRound(params, stream, overhead_clients, expected).items_per_sec);
  }
  obs::SetEnabled(true);
  std::sort(on_rates.begin(), on_rates.end());
  std::sort(off_rates.begin(), off_rates.end());
  const double metrics_on = on_rates[on_rates.size() / 2];
  const double metrics_off = off_rates[off_rates.size() / 2];
  const double overhead_pct = 100.0 * (metrics_off - metrics_on) / metrics_off;
  const bool within_3pct = metrics_on >= 0.97 * metrics_off;
  std::printf("\n-- telemetry overhead (%d clients, median of 5) --\n",
              overhead_clients);
  std::printf("metrics on : %14.0f items/sec\n", metrics_on);
  std::printf("metrics off: %14.0f items/sec\n", metrics_off);
  std::printf("overhead   : %+.2f%% (gate: within 3%%) -> %s\n", overhead_pct,
              within_3pct ? "ok" : "FAIL");

  std::ofstream json("BENCH_e19_serve.json");
  json << "{\n"
       << "  \"experiment\": \"e19_serve_throughput\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"items\": " << length << ",\n"
       << "  \"clients\": " << client_counts.back() << ",\n"
       << "  \"items_per_sec\": " << last.items_per_sec << ",\n"
       << "  \"queries\": " << last.queries << ",\n"
       << "  \"query_p50\": " << LatencyJson(last.query_p50) << ",\n"
       << "  \"query_p99\": " << LatencyJson(last.query_p99) << ",\n"
       << "  \"metrics_on_items_per_sec\": " << metrics_on << ",\n"
       << "  \"metrics_off_items_per_sec\": " << metrics_off << ",\n"
       << "  \"metrics_overhead_pct\": " << overhead_pct << ",\n"
       << "  \"metrics_within_3pct\": " << (within_3pct ? "true" : "false")
       << ",\n"
       << "  \"byte_identical\": true\n"
       << "}\n";
  std::printf("wrote BENCH_e19_serve.json\n");
  if (!within_3pct) {
    std::fprintf(stderr,
                 "E19: telemetry overhead gate failed: on=%.0f off=%.0f\n",
                 metrics_on, metrics_off);
    return 1;
  }
  return 0;
}
