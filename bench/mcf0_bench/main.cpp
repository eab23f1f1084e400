// mcf0_bench — the end-to-end and per-layer benchmark of mcf0.
//
//   mcf0_bench --workload NAME --seed N --seconds S --trace 0|1
//   mcf0_bench --smoke [--workload NAME]
//
// --trace 0 runs the workload's end-to-end rounds against the mcf0
// binary and reports the end-to-end metrics; --trace 1 runs the traced
// in-process pass and reports the per-layer metrics. Every metric is
// printed as `workload metric value unit`; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}. --smoke runs every
// workload at about 1% of its size, one round, both passes, all checks
// on, and makes no timing claims. Exit status: 0 when every check
// passed, 1 when one failed, 2 on a usage error. See README.md.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/version.hpp"
#include "harness.hpp"
#include "hash/gf2_kernels.hpp"

namespace mcf0::bench {
namespace {

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "mcf0_bench: %s\n"
               "usage: mcf0_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       mcf0_bench --smoke [--workload NAME] [--out-dir DIR]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = FindWorkload(value);
      if (opts.workload == nullptr) Usage("unknown workload " + value);
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
      if (!have_seed) Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opts.seconds > 0 && opts.seconds <= 120;
      if (!have_seconds) Usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!opts.smoke &&
      (opts.workload == nullptr || !have_seed || !have_seconds || !have_trace)) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return opts;
}

/// Shortest decimal form that reads back as the same double.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string Quoted(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  return out + "}";
}

/// Where the numbers came from: cores, hash kernel tier, compiler, build
/// type and source revision.
std::string StampJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"hash_kernel_tier\": " +
         Quoted(gf2k::KernelTierName(gf2k::ActiveKernelTier())) +
         ", \"compiler\": " + Quoted(compiler) +
         ", \"build_type\": " + Quoted(MCF0_BENCH_BUILD_TYPE) +
         ", \"git_sha\": " + Quoted(kGitSha) + "}";
}

void PrintLines(const Report& report, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", report.workload.c_str(), m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
}

/// Removes the run's scratch directory (generated inputs, sketch files)
/// on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/mcf0_bench.XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::perror("mcf0_bench: mkdtemp");
      std::exit(1);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Report RunWorkload(const WorkloadSpec& spec, const Options& opts,
                   const std::string& tmp, Tracer* tracer) {
  Report report;
  report.workload = spec.name;
  const Inputs inputs = GenerateInputs(spec, opts.seed);
  if (tracer != nullptr) {
    RunTracedPass(spec, inputs, opts.seed, opts.seconds, opts.smoke, *tracer,
                  report);
    return report;
  }
  const std::string reference = BuildReference(spec, inputs);
  RunEndToEnd(spec, inputs, reference, MCF0_BENCH_CLI, tmp, opts.seconds,
              opts.smoke, report);
  return report;
}

}  // namespace
}  // namespace mcf0::bench

int main(int argc, char** argv) {
  using namespace mcf0::bench;
  const Options opts = ParseOptions(argc, argv);
  std::vector<const WorkloadSpec*> specs;
  std::vector<WorkloadSpec> smoke_specs;
  if (opts.smoke) {
    for (const WorkloadSpec& spec : Workloads()) {
      if (opts.workload == nullptr || opts.workload == &spec) {
        smoke_specs.push_back(SmokeSized(spec));
      }
    }
    for (const WorkloadSpec& spec : smoke_specs) specs.push_back(&spec);
  } else {
    specs.push_back(opts.workload);
  }

  std::vector<Report> reports;
  std::string trace_events;
  {
    const ScratchDir scratch(opts.out_dir);
    for (size_t i = 0; i < specs.size(); ++i) {
      // --smoke runs both passes; a timed run runs the one --trace names.
      for (const bool traced : {false, true}) {
        if (!opts.smoke && traced != opts.trace) continue;
        Tracer tracer;
        reports.push_back(
            RunWorkload(*specs[i], opts, scratch.path(), traced ? &tracer : nullptr));
        if (traced && !tracer.spans().empty()) {
          if (!trace_events.empty()) trace_events += ",\n";
          trace_events += tracer.ChromeEvents(static_cast<int>(i) + 1,
                                              specs[i]->name);
        }
        const Report& r = reports.back();
        PrintLines(r, traced ? r.layers : r.e2e);
        PrintLines(r, r.details);
        for (const std::string& error : r.errors) {
          std::fprintf(stderr, "mcf0_bench: %s: CHECK FAILED: %s\n",
                       r.workload.c_str(), error.c_str());
        }
      }
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string results;
  for (const Report& r : reports) {
    correct &= r.correct;
    attempted += r.attempted;
    failed += r.failed;
    std::string errors = "[";
    for (const std::string& e : r.errors) {
      errors += (errors.size() > 1 ? ", " : "") + Quoted(e);
    }
    errors += "]";
    if (!results.empty()) results += ",\n";
    results += "  {\"workload\": " + Quoted(r.workload) +
               ", \"correct\": " + (r.correct ? "true" : "false") +
               ", \"attempted\": " + std::to_string(r.attempted) +
               ", \"failed\": " + std::to_string(r.failed) +
               ", \"errors\": " + errors + ",\n   \"metrics\": " +
               MetricsJson(r.layers.empty() ? r.e2e : r.layers) +
               ",\n   \"details\": " + MetricsJson(r.details) + "}";
  }
  const std::string stamp = StampJson();
  WriteFile(opts.out_dir + "/bench_result.json",
            "{\"seed\": " + std::to_string(opts.seed) +
                ", \"seconds\": " + Number(opts.seconds) +
                ", \"trace\": " + (opts.trace ? "1" : "0") +
                ", \"smoke\": " + (opts.smoke ? "true" : "false") +
                ",\n \"stamp\": " + stamp + ",\n \"runs\": [\n" + results +
                "\n]}\n");
  if (!trace_events.empty()) {
    WriteFile(opts.out_dir + "/bench_trace.json",
              "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n" +
                  trace_events + "\n]}\n");
  }

  // The last line carries one run's metrics; --smoke reports only the
  // checks.
  const std::vector<Metric> none;
  const Report& last = reports.back();
  const std::vector<Metric>& metrics =
      opts.smoke ? none : (opts.trace ? last.layers : last.e2e);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<uint64_t>(attempted, 1),
              failed, MetricsJson(metrics).c_str());
  return correct && failed == 0 ? 0 : 1;
}
