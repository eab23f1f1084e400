// End-to-end rounds against the mcf0 binary. Every round checks its
// output bytes against the in-process reference; every metric here is
// something an mcf0 user sees: throughput, query latency, set-up time,
// memory and CPU of the system under test.
#include <signal.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "harness.hpp"
#include "net/client.hpp"

namespace mcf0::bench {
namespace {

/// Set-up samples taken before each round. A start takes a few ms, and
/// on a shared-host VM a third or more of them can carry a spike of the
/// same size, so setup_s is the samples' first quartile: it reads the
/// start time without the spikes. Their median moved by 46% between two
/// sets of ten runs on a 4-vCPU x86-64 VM.
constexpr int kSetupSamplesPerRound = 8;
/// A query sent more than this after its due time counts as late.
constexpr auto kLateAfter = std::chrono::milliseconds(1);

struct Round {
  double window_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_kb = 0.0;
};

struct Queries {
  std::vector<double> estimate_us;
  std::vector<double> sketch_us;
  uint64_t scheduled = 0;
  uint64_t late = 0;
};

/// Server registry counters (the stats frame), summed over the rounds'
/// timed windows.
using Counters = std::map<std::string, double>;

const char* const kServeCounters[] = {
    "mcf0_serve_push_batch_us_sum",
    "mcf0_serve_push_batch_us_count",
    "mcf0_serve_credit_stall_us_sum",
    "mcf0_serve_bytes_in_total",
    "mcf0_serve_batches_total",
    "mcf0_engine_absorb_batch_us_sum",
    "mcf0_engine_items_absorbed_total",
    "mcf0_engine_enqueue_blocks_total",
    "mcf0_engine_enqueue_block_us_sum",
    "mcf0_engine_enqueue_block_us_count",
    "mcf0_engine_cache_rebuilds_total",
    "mcf0_engine_cache_partial_rebuilds_total",
    "mcf0_engine_batches_stolen_total",
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Inputs& inputs,
         const std::string& reference, const std::string& cli,
         const std::string& tmp, Report& report)
      : spec_(spec),
        inputs_(inputs),
        reference_(reference),
        cli_(cli),
        tmp_(tmp),
        report_(report) {}

  void Run(double seconds, bool smoke);

 private:
  std::string Path(const std::string& name) const { return tmp_ + "/" + name; }
  std::vector<std::string> ServeArgv(const std::string& out) const;
  std::vector<std::string> BuildArgv(const std::string& out,
                                     const std::string& input) const;
  void WriteInputs();
  std::optional<double> SetupSample();
  std::optional<Round> ServeRound();
  std::optional<Round> RangeRound();
  std::optional<Round> MapReduceRound();
  void QueryLoop(net::PushClient& querier, Clock::time_point start,
                 const std::atomic<int>& running,
                 const std::array<Clock::time_point, 2>& finished);
  void CheckQuery();
  /// The system's final sketch: compared byte for byte with the reference,
  /// its estimate checked against the exact F0.
  void CheckOutput(const std::string& path, std::optional<double> estimate);
  void Emit(const std::vector<Round>& rounds,
            const std::vector<double>& setup);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const std::string& reference_;
  const std::string& cli_;
  const std::string& tmp_;
  Report& report_;

  Queries queries_;
  Counters counters_;
  std::optional<double> kernel_tier_;
  std::string result_path_;  // the build workloads' final sketch file
  double result_estimate_ = 0.0;
};

std::vector<std::string> Runner::ServeArgv(const std::string& out) const {
  std::vector<std::string> argv = {cli_, "serve", "--shards", "2", "--port",
                                   "0"};
  if (spec_.kind == WorkloadKind::kServeBucketingMixed) {
    argv.insert(argv.end(), {"--algo", "bucketing"});
  }
  if (!out.empty()) argv.insert(argv.end(), {"--out", out});
  return argv;
}

std::vector<std::string> Runner::BuildArgv(const std::string& out,
                                           const std::string& input) const {
  if (spec_.kind == WorkloadKind::kBuildRangeMinimum) {
    return {cli_,      "sketch", "build", "--input", "range", "--shards",
            "2",       "--out",  out,     input};
  }
  return {cli_, "sketch", "build", "--algo", "estimation", "--out", out, input};
}

void Runner::WriteInputs() {
  bool ok = true;
  if (spec_.kind == WorkloadKind::kBuildRangeMinimum) {
    ok &= WriteFile(Path("ranges.txt"), RangesText(inputs_.ranges));
    ok &= WriteFile(Path("empty.txt"), RangesText({}));
  } else if (spec_.kind == WorkloadKind::kMapReduceEstimation) {
    const std::vector<uint64_t>& xs = inputs_.elements;
    for (int i = 0; i < kMapSplits; ++i) {
      const size_t begin = xs.size() * static_cast<size_t>(i) / kMapSplits;
      const size_t end = xs.size() * static_cast<size_t>(i + 1) / kMapSplits;
      ok &= WriteFile(Path("split" + std::to_string(i) + ".txt"),
                      ElementsText(xs.data() + begin, xs.data() + end));
    }
    ok &= WriteFile(Path("empty.txt"), "");
  }
  if (!ok) report_.Fail("cannot write the generated input files");
}

/// Reads serve's startup JSON (one object over several lines) up to its
/// closing brace and returns the bound port.
std::optional<int> ReadListening(Child& server) {
  std::string text;
  std::string line;
  while (server.ReadLine(&line)) {
    text += line + "\n";
    if (line == "}") {
      const std::optional<double> port = JsonNumber(text, "port");
      if (text.find("\"listening\"") == std::string::npos || !port) break;
      return static_cast<int>(*port);
    }
  }
  return std::nullopt;
}

std::optional<double> Runner::SetupSample() {
  if (IsServe(spec_)) {
    Child server = Child::Spawn(ServeArgv(""), true);
    const std::optional<int> port =
        server.started() ? ReadListening(server) : std::nullopt;
    const double setup = SecondsSince(server.start());
    server.Signal(SIGTERM);
    server.ReadRest();
    const bool ok = port.has_value() && server.Wait().ok();
    report_.Count(ok);
    if (!ok) report_.Fail("serve did not start and drain cleanly");
    return ok ? std::optional<double>(setup) : std::nullopt;
  }
  // A build's set-up: the same command on an empty input.
  Child build =
      Child::Spawn(BuildArgv(Path("empty.mcf0"), Path("empty.txt")), false);
  const ExitInfo exit = build.Wait();
  report_.Count(exit.ok());
  if (!exit.ok()) report_.Fail("build on an empty input failed");
  return exit.ok() ? std::optional<double>(exit.wall_s) : std::nullopt;
}

void Runner::CheckOutput(const std::string& path,
                         std::optional<double> estimate) {
  std::string bytes;
  report_.Check(ReadFile(path, &bytes) && bytes == reference_,
                "output sketch " + path + " differs from the reference");
  report_.Check(estimate.has_value() && WithinBand(*estimate, inputs_.exact_f0),
                "estimate outside the (1+eps) band of the exact F0 " +
                    std::to_string(inputs_.exact_f0));
}

void Runner::QueryLoop(net::PushClient& querier, Clock::time_point start,
                       const std::atomic<int>& running,
                       const std::array<Clock::time_point, 2>& finished) {
  // Open loop: query k is due at start + k / rate whatever happened to
  // query k-1, and its latency counts from the due time, so a stall also
  // charges the queries that queued behind it. Every query due before
  // the window closes is sent, late if the session was stalled.
  const std::chrono::duration<double> period(1.0 / spec_.query_hz);
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * k);
    std::this_thread::sleep_until(due);
    if (running.load(std::memory_order_acquire) == 0 &&
        due >= std::max(finished[0], finished[1])) {
      return;
    }
    ++queries_.scheduled;
    if (Clock::now() - due > kLateAfter) ++queries_.late;
    const bool sketch = spec_.mixed_queries && k % 2 == 1;
    const bool ok = sketch ? querier.QuerySketch().ok()
                           : querier.QueryEstimate().ok();
    report_.Count(ok);
    if (!ok) {
      report_.Fail("a live query failed");
      return;
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - due).count();
    (sketch ? queries_.sketch_us : queries_.estimate_us).push_back(us);
  }
}

std::optional<Round> Runner::ServeRound() {
  const std::string out = Path("serve.mcf0");
  std::remove(out.c_str());
  Child server = Child::Spawn(ServeArgv(out), true);
  const std::optional<int> port =
      server.started() ? ReadListening(server) : std::nullopt;
  if (!port) {
    report_.Count(false);
    report_.Fail("serve did not announce a port");
    return std::nullopt;
  }
  net::ClientOptions dial;
  dial.port = *port;
  dial.recv_timeout_ms = 60'000;
  std::vector<net::PushClient> sessions;
  for (int i = 0; i < 3; ++i) {  // two pushers, then the querier
    Result<net::PushClient> session =
        net::PushClient::Connect(net::StreamKind::kRaw, dial);
    if (!session.ok()) {
      report_.Count(false);
      report_.Fail("connect: " + session.status().ToString());
      return std::nullopt;
    }
    sessions.push_back(std::move(session).value());
  }
  net::PushClient& querier = sessions[2];
  const Result<net::StatsReportFrame> before = querier.QueryStats();
  const std::optional<double> cpu_before = ProcCpuSeconds(server.pid());

  // The window opens after every session's Hello/Welcome exchange.
  const std::vector<uint64_t>& xs = inputs_.elements;
  const size_t half = xs.size() / 2;
  std::atomic<int> running{2};
  std::array<Status, 2> outcome = {Status::Ok(), Status::Ok()};
  std::array<Clock::time_point, 2> finished;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pushers;
  for (size_t p = 0; p < 2; ++p) {
    pushers.emplace_back([&, p] {
      const size_t begin = p == 0 ? 0 : half;
      const size_t end = p == 0 ? half : xs.size();
      Status status = sessions[p].Push(
          std::span<const uint64_t>(xs.data() + begin, end - begin));
      if (status.ok()) status = sessions[p].Close();  // goodbye-ack
      outcome[p] = status;
      finished[p] = Clock::now();
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  QueryLoop(querier, start, running, finished);
  for (std::thread& t : pushers) t.join();

  Round round;
  round.window_s = std::chrono::duration<double>(
                       std::max(finished[0], finished[1]) - start)
                       .count();
  const std::optional<double> cpu_after = ProcCpuSeconds(server.pid());
  round.peak_rss_kb = ProcPeakRssKb(server.pid()).value_or(0.0);
  if (cpu_before && cpu_after) round.cpu_s = *cpu_after - *cpu_before;
  const Result<net::StatsReportFrame> after = querier.QueryStats();
  if (before.ok() && after.ok()) {
    for (const char* name : kServeCounters) {
      counters_[name] += static_cast<double>(after.value().Find(name).value_or(0) -
                                             before.value().Find(name).value_or(0));
    }
    const std::optional<uint64_t> tier =
        after.value().Find("mcf0_hash_kernel_tier");
    if (tier) kernel_tier_ = static_cast<double>(*tier);
  }
  for (size_t p = 0; p < 2; ++p) {
    report_.Count(outcome[p].ok(),
                  std::max<uint64_t>(sessions[p].batches_sent(), 1));
    if (!outcome[p].ok()) report_.Fail("push: " + outcome[p].ToString());
  }
  (void)querier.Close();

  server.Signal(SIGTERM);
  const std::string drained = server.ReadRest();
  const ExitInfo exit = server.Wait();
  report_.Check(exit.ok(), "serve exited uncleanly after the drain");
  report_.Check(JsonNumber(drained, "items") == static_cast<double>(xs.size()),
                "drained item count differs from the items pushed");
  report_.Check(JsonNumber(drained, "error_frames") == 0.0,
                "serve sent error frames");
  CheckOutput(out, JsonNumber(drained, "estimate"));
  return round;
}

std::optional<Round> Runner::RangeRound() {
  const std::string out = Path("range.mcf0");
  std::remove(out.c_str());
  Child build = Child::Spawn(BuildArgv(out, Path("ranges.txt")), true);
  const std::string json = build.ReadRest();
  const ExitInfo exit = build.Wait();
  report_.Check(exit.ok(), "range build failed");
  if (!exit.ok()) return std::nullopt;
  report_.Check(
      JsonNumber(json, "items") == static_cast<double>(inputs_.ranges.size()),
      "range build counted a different number of items");
  CheckOutput(out, JsonNumber(json, "estimate"));
  result_path_ = out;
  result_estimate_ = JsonNumber(json, "estimate").value_or(0.0);
  return Round{exit.wall_s, exit.cpu_s, exit.max_rss_kb};
}

std::optional<Round> Runner::MapReduceRound() {
  Round round;
  std::vector<Child> maps(kMapSplits);
  std::vector<std::string> outputs;
  for (int i = 0; i < kMapSplits; ++i) {
    outputs.push_back(Path("map" + std::to_string(i) + ".mcf0"));
  }
  const Clock::time_point start = Clock::now();
  int next = 0;
  int in_flight = 0;
  const auto launch = [&] {
    maps[static_cast<size_t>(next)] = Child::Spawn(
        BuildArgv(outputs[static_cast<size_t>(next)],
                  Path("split" + std::to_string(next) + ".txt")),
        false);
    ++next;
    ++in_flight;
  };
  while (next < kMapSplits && in_flight < kMaxInFlight) launch();
  bool ok = true;
  while (in_flight > 0) {
    const int done = Child::WaitAny(maps);
    if (done < 0) break;
    --in_flight;
    const ExitInfo exit = maps[static_cast<size_t>(done)].Wait();
    report_.Count(exit.ok());
    ok &= exit.ok();
    round.cpu_s += exit.cpu_s;
    round.peak_rss_kb = std::max(round.peak_rss_kb, exit.max_rss_kb);
    if (next < kMapSplits) launch();
  }
  if (!ok) {
    report_.Fail("a map build failed");
    return std::nullopt;
  }
  const std::string merged = Path("merged.mcf0");
  std::vector<std::string> argv = {cli_, "sketch", "merge", "--out", merged};
  argv.insert(argv.end(), outputs.begin(), outputs.end());
  Child merge = Child::Spawn(argv, true);
  const std::string json = merge.ReadRest();
  const ExitInfo exit = merge.Wait();
  round.window_s = SecondsSince(start);
  report_.Check(exit.ok(), "sketch merge failed");
  if (!exit.ok()) return std::nullopt;
  round.cpu_s += exit.cpu_s;
  round.peak_rss_kb = std::max(round.peak_rss_kb, exit.max_rss_kb);
  CheckOutput(merged, JsonNumber(json, "estimate"));
  result_path_ = merged;
  result_estimate_ = JsonNumber(json, "estimate").value_or(0.0);
  return round;
}

void Runner::CheckQuery() {
  // A build user reads the result with `mcf0 sketch query`.
  Child query = Child::Spawn({cli_, "sketch", "query", result_path_}, true);
  const std::string json = query.ReadRest();
  report_.Check(query.Wait().ok() &&
                    JsonNumber(json, "estimate") == result_estimate_,
                "sketch query failed or disagreed with the build");
}

void Runner::Run(double seconds, bool smoke) {
  WriteInputs();
  // Rounds of identical work (one when smoke), with set-up samples taken
  // between them so that both sample the whole run. Another round starts
  // only if, as long as the longest so far, it ends within `seconds`.
  std::vector<double> setup;
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  do {
    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < kSetupSamplesPerRound && report_.correct; ++i) {
      if (const std::optional<double> s = SetupSample()) setup.push_back(*s);
    }
    if (!report_.correct) break;
    std::optional<Round> round;
    switch (spec_.kind) {
      case WorkloadKind::kServeMinimum:
      case WorkloadKind::kServeBucketingMixed:
        round = ServeRound();
        break;
      case WorkloadKind::kBuildRangeMinimum:
        round = RangeRound();
        break;
      case WorkloadKind::kMapReduceEstimation:
        round = MapReduceRound();
        break;
    }
    if (!round) break;
    rounds.push_back(*round);
    longest = std::max(longest, SecondsSince(round_start));
  } while (report_.correct && !smoke &&
           SecondsSince(start) + longest <= seconds);
  if (report_.correct && !IsServe(spec_)) CheckQuery();
  if (report_.correct) Emit(rounds, setup);
}

void Runner::Emit(const std::vector<Round>& rounds,
                  const std::vector<double>& setup) {
  // Throughput and CPU are taken over all rounds together: the machine's
  // speed switches within seconds, and the whole window averages that
  // better than a median of two to four rounds.
  const double items = static_cast<double>(spec_.items * rounds.size());
  std::vector<double> rss;
  double window = 0.0;
  double cpu = 0.0;
  for (const Round& r : rounds) {
    rss.push_back(r.peak_rss_kb / 1024.0);
    window += r.window_s;
    cpu += r.cpu_s;
  }
  report_.e2e = {
      {"items_per_s", items / window, "items/s"},
      {"setup_s", QuantileOf(setup, 0.25), "s"},
      {"peak_rss_mb", MedianOf(rss), "MB"},
      {"cpu_s_per_mitem", 1e6 * cpu / items, "s/Mitem"},
  };
  std::vector<Metric>& d = report_.details;
  d.push_back({"rounds", static_cast<double>(rounds.size()), "count"});
  d.push_back({"window_s", window, "s"});
  if (!IsServe(spec_)) return;
  // Query latencies are reported without a bound: during ingestion the
  // query backlog grows through the window (README.md, "Query latency").
  const std::vector<double>& q = queries_.estimate_us;
  d.push_back({"query_p50_us", MedianOf(q), "us"});
  d.push_back({"query_tail_us", TailOf(q), "us"});
  d.push_back({"query_samples", static_cast<double>(q.size()), "count"});
  d.push_back({"query_tail_pct",
               q.size() >= 11 ? 100.0 * static_cast<double>(q.size() - 10) /
                                    static_cast<double>(q.size())
                              : 0.0,
               "%"});
  if (spec_.mixed_queries) {
    const std::vector<double>& s = queries_.sketch_us;
    d.push_back({"sketch_query_p50_us", MedianOf(s), "us"});
    d.push_back({"sketch_query_tail_us", TailOf(s), "us"});
    d.push_back({"sketch_query_samples", static_cast<double>(s.size()), "count"});
  }
  d.push_back({"bench.query_late_share",
               queries_.scheduled > 0
                   ? static_cast<double>(queries_.late) /
                         static_cast<double>(queries_.scheduled)
                   : 0.0,
               "ratio"});
  const auto c = [this](const char* name) {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double absorbed = c("mcf0_engine_items_absorbed_total");
  const double batches = c("mcf0_serve_batches_total");
  const double absorb_ns = ratio(1e3 * c("mcf0_engine_absorb_batch_us_sum"),
                                 absorbed);
  d.push_back({"sut.net.push_batch_us_mean",
               ratio(c("mcf0_serve_push_batch_us_sum"),
                     c("mcf0_serve_push_batch_us_count")),
               "us"});
  d.push_back({"sut.net.credit_stall_share",
               ratio(c("mcf0_serve_credit_stall_us_sum"), 2e6 * window),
               "ratio"});
  d.push_back({"sut.net.bytes_in_per_item",
               ratio(c("mcf0_serve_bytes_in_total"), absorbed), "bytes"});
  d.push_back({"sut.engine.absorb_ns_per_item", absorb_ns, "ns"});
  // Absorb work per shard as a share of the windows: near 1 means the
  // engine workers were the bottleneck.
  d.push_back({"sut.engine.absorb_window_share",
               ratio(1e-9 * absorb_ns * absorbed / 2.0, window), "ratio"});
  d.push_back({"sut.engine.enqueue_block_share",
               ratio(c("mcf0_engine_enqueue_blocks_total"), batches), "ratio"});
  d.push_back({"sut.engine.enqueue_block_us_mean",
               ratio(c("mcf0_engine_enqueue_block_us_sum"),
                     c("mcf0_engine_enqueue_block_us_count")),
               "us"});
  d.push_back({"sut.engine.cache_rebuilds_per_query",
               ratio(c("mcf0_engine_cache_rebuilds_total"),
                     static_cast<double>(queries_.scheduled)),
               "ratio"});
  d.push_back({"sut.engine.cache_partial_share",
               ratio(c("mcf0_engine_cache_partial_rebuilds_total"),
                     c("mcf0_engine_cache_rebuilds_total")),
               "ratio"});
  d.push_back({"sut.engine.batches_stolen_share",
               ratio(c("mcf0_engine_batches_stolen_total"), batches), "ratio"});
  if (kernel_tier_) d.push_back({"sut.hash_kernel_tier", *kernel_tier_, "tier"});
}

}  // namespace

void RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                 const std::string& reference, const std::string& cli,
                 const std::string& tmp_dir, double seconds, bool smoke,
                 Report& report) {
  Runner(spec, inputs, reference, cli, tmp_dir, report).Run(seconds, smoke);
}

}  // namespace mcf0::bench
