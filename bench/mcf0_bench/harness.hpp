/// \file harness.hpp
/// \brief Shared pieces of `mcf0_bench`: the frozen workload table, the
/// generated inputs, the report every run fills, child processes, and
/// the in-memory span tracer.
///
/// The harness drives the real `mcf0` binary (the system under test) as
/// a child process for the end-to-end numbers, and replays the same
/// generated inputs in-process through the library's public calls for
/// the per-layer numbers (see README.md).
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "setstream/range.hpp"

namespace mcf0::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- workloads ------------------------------------------------------------

enum class WorkloadKind {
  kServeMinimum,
  kServeBucketingMixed,
  kBuildRangeMinimum,
  kMapReduceEstimation,
};

/// One workload. Sizes are per round and frozen: a run repeats rounds of
/// identical work until its measuring time is spent, so a parent and a
/// change always compare rounds of the same work.
struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  size_t items;       ///< elements (raw) or ranges (range) per round
  uint64_t universe;  ///< raw elements are uniform in [0, universe)
  double query_hz;    ///< serve: scheduled queries per second
  bool mixed_queries;  ///< serve: alternate QueryEstimate / QuerySketch
};

/// The four workloads, in the order --smoke runs them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);
/// About 1% of the frozen sizes, for --smoke.
WorkloadSpec SmokeSized(const WorkloadSpec& spec);

bool IsServe(const WorkloadSpec& spec);
bool IsRaw(const WorkloadSpec& spec);

/// Range workload geometry (Theorem 6 items): 2 dimensions of 16 bits,
/// so n = 32 like the raw workloads, side lengths uniform in [1, 1024].
inline constexpr int kRangeDims = 2;
inline constexpr int kRangeBits = 16;
inline constexpr uint64_t kRangeMaxSide = 1024;

/// Map-reduce geometry: the input is split this many ways, and at most
/// kMaxInFlight build processes run at once (one per core here).
inline constexpr int kMapSplits = 8;
inline constexpr int kMaxInFlight = 4;

/// Batch sizes the system under test uses: serve's default
/// --batch-items, and the structured engine's producer batch.
inline constexpr size_t kRawBatchItems = 4096;
inline constexpr size_t kStructuredBatchItems = 16;

/// The sketch accuracy every workload runs at (the CLI defaults).
inline constexpr double kEps = 0.8;

/// One round's inputs, generated from the workload seed.
struct Inputs {
  std::vector<uint64_t> elements;     ///< raw workloads
  std::vector<MultiDimRange> ranges;  ///< build_range_minimum
  double exact_f0 = 0.0;              ///< |distinct elements| or |union|
};

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

/// A fixed sample of points from the round's items, for the per-layer
/// hash and row replays: the first elements of a raw round, uniform
/// points inside the ranges of a range round.
std::vector<uint64_t> SamplePoints(const WorkloadSpec& spec,
                                   const Inputs& inputs, size_t count,
                                   uint64_t seed);

/// Text forms the CLI reads: one element per line, or a `p range`
/// header plus one range per line.
std::string ElementsText(const uint64_t* begin, const uint64_t* end);
std::string RangesText(const std::vector<MultiDimRange>& ranges);

/// True iff `estimate` lies in the (1 + eps) band around `exact`.
bool WithinBand(double estimate, double exact);

// ---- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces. `e2e` and `layers` hold exactly
/// the BENCHMARK.json metric lists; `details` holds values that exist
/// only on some workloads (see README.md).
struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Metric> details;
  std::vector<std::string> errors;

  /// Records a failed correctness check.
  void Fail(const std::string& what);
  /// Counts one operation; `ok == false` also counts it as failed.
  void Count(bool ok, uint64_t operations = 1);
  /// Count(ok), plus Fail(what) when !ok.
  void Check(bool ok, const std::string& what);
};

/// The p-quantile of a sample, interpolating between order statistics
/// (0 when empty).
double QuantileOf(std::vector<double> values, double p);
double MedianOf(std::vector<double> values);

/// The value with exactly ten samples above it: the highest percentile
/// a sample supports (p99 at 1000 samples). Needs at least 11 samples.
double TailOf(std::vector<double> values);

// ---- child processes ------------------------------------------------------

struct ExitInfo {
  int status = -1;  ///< raw wait status
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system
  double max_rss_kb = 0.0;

  bool ok() const;
};

/// One child process, spawned with stdin on /dev/null and stdout either
/// captured through a pipe or discarded. The destructor kills and reaps
/// a child that is still running, so no process outlives its owner.
class Child {
 public:
  static Child Spawn(const std::vector<std::string>& argv, bool capture);

  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  Clock::time_point start() const { return start_; }

  /// Next line of captured stdout, without its newline; false at EOF.
  bool ReadLine(std::string* line);
  /// The rest of captured stdout, up to EOF.
  std::string ReadRest();
  void Signal(int sig) const;
  /// Blocks until the child exits and returns its accounting.
  ExitInfo Wait();

  /// Blocks until one not-yet-reaped child in `children` exits; returns
  /// its index (or -1 if none is running).
  static int WaitAny(std::vector<Child>& children);

 private:
  void Reap(int status, const rusage& usage);
  void Release();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
  Clock::time_point start_{};
  ExitInfo exit_;
  std::string pending_;  // read but not yet returned
};

/// utime + stime of a live process, from /proc/<pid>/stat.
std::optional<double> ProcCpuSeconds(pid_t pid);
/// VmHWM of a live process in kB, from /proc/<pid>/status.
std::optional<double> ProcPeakRssKb(pid_t pid);

/// The number after `"key": ` in a CLI JSON object.
std::optional<double> JsonNumber(const std::string& json,
                                 const std::string& key);

bool ReadFile(const std::string& path, std::string* bytes);
bool WriteFile(const std::string& path, const std::string& bytes);

// ---- tracing --------------------------------------------------------------

/// In-memory spans for the traced pass: name, start, end, parent. Spans
/// are recorded by the benchmark around its calls into each layer, kept
/// in memory, and written once at exit in Chrome trace-event format.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a root
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int id) const;
  /// Total seconds of the spans named `name` recorded at index >= `from`.
  double SecondsIn(const char* name, int from = 0) const;
  /// Share of span `id` covered by leaf spans (layer calls) below it;
  /// the rest is harness glue.
  double LeafCoverage(int id) const;
  /// Chrome trace events (comma-separated objects) under one pid.
  std::string ChromeEvents(int pid, const std::string& workload) const;

 private:
  int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- the two passes -------------------------------------------------------

/// Runs the workload's end-to-end rounds against the mcf0 binary at
/// `cli` until `seconds` have passed (one round when smoke), checking
/// every output, and fills report.e2e / details.
void RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                 const std::string& reference, const std::string& cli,
                 const std::string& tmp_dir, double seconds, bool smoke,
                 Report& report);

/// Builds the reference sketch bytes in-process: a 4-shard engine fed
/// through one Producer handle (AddBatch, Flush, MergedSketch, Encode).
std::string BuildReference(const WorkloadSpec& spec, const Inputs& inputs);

/// The traced pass: the reference build, spanned, then single-threaded
/// replays of each layer's public calls on the workload's inputs,
/// repeated until `seconds` are spent (once when smoke). Fills
/// report.layers / details.
void RunTracedPass(const WorkloadSpec& spec, const Inputs& inputs,
                   uint64_t seed, double seconds, bool smoke,
                   Tracer& tracer, Report& report);

}  // namespace mcf0::bench
