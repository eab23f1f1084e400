// mcf0 — unified command-line driver for the Model-Counting-meets-F0
// library. One binary, four subcommands, JSON results on stdout:
//
//   mcf0 f0     [opts] <elements.txt|->   classic F0 estimation (§3) over a
//                                         whitespace-separated u64 stream
//   mcf0 count  [opts] <file.cnf|.dnf>    approximate model counting via the
//                                         streaming-to-counting recipe (§3)
//   mcf0 dnf    [opts] <file.dnf>         distributed DNF counting (§4) with
//                                         the communication ledger
//   mcf0 stream [opts] <file.dnf>         structured set streaming (§5):
//                                         each DNF term is one stream item
//   mcf0 sketch build|merge|query         durable F0 sketches: build from a
//                                         stream (optionally sharded across
//                                         threads), merge sketch files,
//                                         query an estimate — map-reduce F0
//                                         over file shards from the shell
//   mcf0 serve  [opts]                    networked sketch service: remote
//                                         push clients stream into one
//                                         sharded engine (docs/serve.md)
//   mcf0 push   [opts] <input|->          stream a local input into a
//                                         running serve instance
//
// Common options: --eps E --delta D --seed S --algo NAME. Run with no
// arguments (or `mcf0 help`) for the full reference. Exit codes: 0 ok,
// 1 runtime/parse failure, 2 usage error.
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>

#include <unistd.h>

#include "cli_flags.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/version.hpp"
#include "core/approx_count_est.hpp"
#include "core/approx_count_min.hpp"
#include "core/approxmc.hpp"
#include "core/counting.hpp"
#include "core/karp_luby.hpp"
#include "distributed/distributed_dnf.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "formula/dimacs.hpp"
#include "formula/formula.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "setstream/range_to_dnf.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

/// Widest structured (§5) universe any subcommand accepts, in bits. Past
/// the codec's elision cap (wire::kMaxElidedStructuredUniverseBits) every
/// row would embed a dense n x 3n hash, so a sketch file of one wide
/// universe could run to hundreds of megabytes.
constexpr int kMaxStructuredUniverseBits = 4096;

constexpr const char kUsage[] = R"(mcf0 — model counting meets F0 estimation

usage: mcf0 <subcommand> [options] <input-file|->

subcommands:
  f0      estimate the number of distinct elements in a stream of 64-bit
          integers (whitespace-separated; `-` reads stdin)
  count   (eps, delta)-approximate the model count of a DIMACS CNF
          (`p cnf`) or DNF (`p dnf`) file
  dnf     distributed DNF counting: partition the terms across k sites and
          report the estimate plus bits communicated
  stream  structured set streaming: feed each DNF term as one set item and
          estimate the F0 of the union
  sketch  durable F0 sketches (binary .mcf0 files; see docs/wire_format.md):
            sketch build [opts] --out F <input|->          stream -> sketch
            sketch merge --out F <a.mcf0> <b.mcf0> [...]   union of sketches
            sketch query <a.mcf0>                          estimate + params
          build reads raw u64 element streams by default; --input dnf
          treats each term of a DIMACS DNF file as one structured set
          item (§5), --input range reads `p range <dims> <bits>` headers
          with one multidimensional range per line, --input affine reads
          `a <n> <rank>` item headers followed by <rank> 0/1 matrix rows
          and one rank-bit offset row (Theorem 7) — all persist a
          StructuredF0 sketch that merges and queries exactly like a raw
          one. every input kind ingests across --shards worker threads
          fed by --producers threads (raw items are sharded by element,
          structured ones by item; the sketch is byte-identical however
          ingestion is parallelized). merge decodes one input at a time
          and folds it into the union, so decoded sketch state stays at
          the union plus one input no matter how many shard files are
          merged (the raw bytes of each input file are still buffered);
          a bad shard is reported by file name in that same single pass
  serve   run a sketch service on TCP (docs/serve.md): remote `mcf0 push`
          clients stream items into one sharded engine over the v2 frame
          protocol, with credit-based flow control and live estimate /
          sketch queries. SIGTERM (or SIGINT) drains gracefully: every
          session is flushed, and the final merged sketch is written to
          --out. prints one JSON object at startup (with the bound port
          and pid) and one when the drain completes
  push    stream a local input file into a running serve instance; the
          input syntax per --input kind is exactly `sketch build`'s
  help    print this message

common options:
  --eps E       relative accuracy, E >= 1e-6        (default 0.8)
  --delta D     failure probability, 0 < D < 1      (default 0.2)
  --seed S      PRNG seed                           (default 1)
  --algo NAME   algorithm; per subcommand:
                  f0:     minimum | bucketing | estimation
                  count:  approxmc | countmin | countest | karp-luby
                  dnf:    minimum | bucketing | estimation
                  stream: minimum | bucketing
                  sketch build: minimum | bucketing | estimation

subcommand options:
  f0      --n BITS        universe is {0,1}^BITS, BITS <= 64  (default 32)
  count   --binary-search ApproxMC2-style level search (CNF)
          --tseitin       Tseitin-encode XOR constraints (CNF)
  dnf     --sites K       number of sites                     (default 4)
  sketch  --out FILE      output sketch file (build, merge)
          --input KIND    build input: raw | dnf | range | affine
                          (default raw; dnf/range/affine build structured
                          §5 sketches, --algo minimum | bucketing)
          --shards N      build: ingest across N worker threads (default 1)
          --producers P   build: feed the shards from P producer threads
                          (default 1; P > 1 buffers the parsed stream to
                          split it across producers)
  serve   --host A        listen address (IPv4 or localhost) (default 127.0.0.1)
          --port P        listen port; 0 picks an ephemeral one (default 0)
          --input KIND    raw serves u64 element sessions; dnf | range |
                          affine all serve structured §5 sessions (one
                          engine; clients choose the item syntax)
          --n BITS        universe width; raw caps at 64, structured
                          sessions need the width the inputs were written
                          for                                (default 32)
          --shards N      engine worker threads               (default 1)
          --credit-window B  batches a client may have in flight
                                                             (default 8)
          --batch-items N max items per pushed batch frame   (default 4096)
          --drain-timeout-ms T  grace period before a drain force-closes
                          unresponsive clients               (default 30000)
          --metrics-interval-ms T  emit one JSON metrics line (the full
                          telemetry registry snapshot; see
                          docs/observability.md) to stderr every T ms
                          (default 0 = off)
          --out FILE      final merged sketch file written on drain
  push    --host A --port P  the serve instance to dial (--port required)
          --input KIND    raw | dnf | range | affine file syntax, exactly
                          as `sketch build` reads them        (default raw)
          --query [WHAT]  also query the server after pushing: estimate
                          (the default; the live server-wide estimate,
                          racing other producers) or stats (the server
                          metrics snapshot — protocol rev 2 servers)
          --timeout-ms T  bound on each wait for a server frame
                                                             (default 30000)

All results are a single JSON object on stdout. A sketch built on one
shard of a stream merges losslessly with sketches of the other shards as
long as every build used the same --n/--eps/--delta/--seed/--algo (and
the same --input kind). Sketch files are written in wire format v2;
v1 files from older builds stay readable and mix freely with v2 files in
one merge.
)";

struct CommonOptions {
  double eps = 0.8;
  double delta = 0.2;
  uint64_t seed = 1;
  std::string algo;
  int n = 32;
  int sites = 4;
  int shards = 1;
  int producers = 1;
  bool binary_search = false;
  bool tseitin = false;
  std::string out;
  std::string input_kind = "raw";  // sketch build: raw | dnf | range | affine
  // serve / push (the networked service; docs/serve.md).
  std::string host = "127.0.0.1";
  int port = 0;
  int credit_window = 8;
  int batch_items = 4096;
  int drain_timeout_ms = 30'000;
  int metrics_interval_ms = 0;
  int timeout_ms = 30'000;
  std::string query;  // "" = no post-push query; "estimate" | "stats"
  std::vector<std::string> inputs;
};

using cli::Fail;
using cli::ParseInt;

// Parses flags; everything after them is the input path.
CommonOptions ParseOptions(int argc, char** argv) {
  CommonOptions opts;
  cli::FlagParser flags;
  flags.Double("--eps", &opts.eps);
  flags.Double("--delta", &opts.delta);
  flags.U64("--seed", &opts.seed);
  flags.String("--algo", &opts.algo);
  flags.Int("--n", &opts.n);
  flags.Int("--sites", &opts.sites);
  flags.Int("--shards", &opts.shards);
  flags.Int("--producers", &opts.producers);
  flags.String("--out", &opts.out);
  flags.Alias("-o", "--out");
  flags.Enum("--input", &opts.input_kind, "raw, dnf, range, or affine",
             {"raw", "dnf", "range", "affine"});
  flags.Bool("--binary-search", &opts.binary_search);
  flags.Bool("--tseitin", &opts.tseitin);
  flags.String("--host", &opts.host);
  flags.Int("--port", &opts.port);
  flags.Int("--credit-window", &opts.credit_window);
  flags.Int("--batch-items", &opts.batch_items);
  flags.Int("--drain-timeout-ms", &opts.drain_timeout_ms);
  flags.Int("--metrics-interval-ms", &opts.metrics_interval_ms);
  flags.Int("--timeout-ms", &opts.timeout_ms);
  // Bare --query keeps its historical meaning (estimate); the optional
  // value never swallows a positional input path.
  flags.OptionalEnum("--query", &opts.query, "estimate",
                     {"estimate", "stats"});
  flags.Parse(argc, argv, &opts.inputs);
  // The lower bound keeps the Thresh = 96/eps^2 formula inside uint64
  // (library CHECKs would abort otherwise); no real run wants eps there.
  // isfinite + negated comparisons make NaN and inf usage errors too.
  if (!std::isfinite(opts.eps) || opts.eps < 1e-6) {
    Fail("--eps must be a finite number >= 1e-6", 2);
  }
  if (!(opts.delta > 0 && opts.delta < 1)) {
    Fail("--delta must be in (0, 1)", 2);
  }
  return opts;
}

/// The one input path of the single-input subcommands.
const std::string& SingleInput(const CommonOptions& opts) {
  if (opts.inputs.empty()) Fail("missing input file (use `-` for stdin)", 2);
  if (opts.inputs.size() > 1) {
    Fail("unexpected extra argument " + opts.inputs[1], 2);
  }
  return opts.inputs[0];
}

std::string ReadInput(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) Fail("cannot open " + path);
    buffer << in.rdbuf();
  }
  return buffer.str();
}

/// Streams whitespace-separated u64 elements from `path` ("-" = stdin)
/// into `sink` in blocks of up to 4,096 parsed values (a span over one
/// fixed buffer): constant memory regardless of stream length, unlike
/// ReadInput's whole-file slurp. A negative number is malformed input,
/// not a wrapped u64. Returns the element count.
template <typename Sink>
uint64_t StreamElements(const std::string& path, Sink&& sink) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) Fail("cannot open " + path);
    in = &file;
  }
  std::array<uint64_t, 4096> block;
  size_t len = 0;
  uint64_t count = 0;
  while (*in >> std::ws && in->peek() != '-' && *in >> block[len]) {
    ++count;
    if (++len == block.size()) {
      sink(std::span<const uint64_t>(block.data(), len));
      len = 0;
    }
  }
  if (!in->eof()) Fail("input is not a whitespace-separated u64 list");
  if (len > 0) sink(std::span<const uint64_t>(block.data(), len));
  return count;
}

std::string ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBinaryFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) Fail("cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) Fail("failed writing " + path);
}

// Minimal JSON emitter: flat object of key/value pairs, insertion order.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": \"" + Escape(value) + "\"");
  }
  void Add(const std::string& key, double value) {
    if (!std::isfinite(value)) {  // JSON has no nan/inf literal
      fields_.push_back("\"" + key + "\": null");
      return;
    }
    // Shortest decimal form that round-trips to the same double.
    char buffer[64];
    for (int precision = 1; precision <= 17; ++precision) {
      std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
      if (std::strtod(buffer, nullptr) == value) break;
    }
    fields_.push_back("\"" + key + "\": " + buffer);
  }
  void Add(const std::string& key, uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
    fields_.push_back("\"" + key + "\": " + buffer);
  }
  void Add(const std::string& key, int value) {
    Add(key, static_cast<uint64_t>(value));
  }
  /// `value` is spliced in verbatim — for pre-rendered nested JSON
  /// (the caller owns its well-formedness).
  void AddRaw(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": " + value);
  }

  static std::string Escape(const std::string& raw);

  void Print() const {
    std::printf("{");
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::printf("%s\n  %s", i == 0 ? "" : ",", fields_[i].c_str());
    }
    std::printf("\n}\n");
  }

 private:
  std::vector<std::string> fields_;
};

std::string JsonObject::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Every result object leads with the command plus build provenance, so
/// saved JSON is traceable to the binary that produced it.
JsonObject NewJson(const std::string& command) {
  JsonObject json;
  json.Add("command", command);
  json.Add("version", std::string(kVersionString));
  json.Add("git_sha", std::string(kGitSha));
  return json;
}

Dnf ParseDnfOrDie(const std::string& text) {
  auto parsed = ParseDimacsDnf(text);
  if (!parsed.ok()) Fail("parse error: " + parsed.status().ToString());
  Dnf dnf = std::move(parsed).value();
  if (dnf.num_vars() < 1) Fail("formula must have at least one variable");
  return dnf;
}

// True iff the first non-comment problem line is a `p dnf` header
// (comments may mention either format, so only the header counts; token
// comparison tolerates arbitrary whitespace like the DIMACS parsers do).
bool LooksLikeDnf(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first == "c") continue;
    std::string kind;
    return first == "p" && (tokens >> kind) && kind == "dnf";
  }
  return false;
}

// ---------------------------------------------------------------------------
// mcf0 f0
// ---------------------------------------------------------------------------

const char* F0AlgorithmName(F0Algorithm algorithm) {
  switch (algorithm) {
    case F0Algorithm::kBucketing: return "bucketing";
    case F0Algorithm::kMinimum: return "minimum";
    case F0Algorithm::kEstimation: return "estimation";
  }
  return "?";
}

/// Shared by `f0` and `sketch build`: flags -> sketch parameters.
F0Params F0ParamsFromOptions(const CommonOptions& opts, const char* cmd) {
  F0Params params;
  params.n = opts.n;
  params.eps = opts.eps;
  params.delta = opts.delta;
  params.seed = opts.seed;
  const std::string algo = opts.algo.empty() ? "minimum" : opts.algo;
  if (algo == "minimum") {
    params.algorithm = F0Algorithm::kMinimum;
  } else if (algo == "bucketing") {
    params.algorithm = F0Algorithm::kBucketing;
  } else if (algo == "estimation") {
    params.algorithm = F0Algorithm::kEstimation;
  } else {
    Fail(std::string(cmd) + ": unknown --algo " + algo +
             " (want minimum | bucketing | estimation)",
         2);
  }
  if (params.n < 1 || params.n > 64) Fail("--n must be in [1, 64]", 2);
  return params;
}

int RunF0(const CommonOptions& opts) {
  const F0Params params = F0ParamsFromOptions(opts, "f0");
  const std::string algo = F0AlgorithmName(params.algorithm);

  WallTimer timer;
  F0Estimator estimator(params);
  // Incremental ingestion: sketch space is O(polylog), so the stream must
  // never be buffered whole.
  const uint64_t elements =
      StreamElements(SingleInput(opts),
                     [&](std::span<const uint64_t> xs) { estimator.Add(xs); });

  JsonObject json = NewJson("f0");
  json.Add("algorithm", algo);
  json.Add("n", params.n);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);
  json.Add("elements", elements);
  json.Add("rows", F0Rows(params));
  json.Add("thresh", F0Thresh(params));
  json.Add("estimate", estimator.Estimate());
  json.Add("space_bits", static_cast<uint64_t>(estimator.SpaceBits()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// mcf0 count
// ---------------------------------------------------------------------------

int RunCount(const CommonOptions& opts) {
  CountingParams params;
  params.eps = opts.eps;
  params.delta = opts.delta;
  params.seed = opts.seed;
  params.binary_search = opts.binary_search;
  params.use_tseitin = opts.tseitin;
  const std::string algo = opts.algo.empty() ? "approxmc" : opts.algo;

  const std::string text = ReadInput(SingleInput(opts));
  const bool is_dnf = LooksLikeDnf(text);

  JsonObject json = NewJson("count");
  json.Add("input", SingleInput(opts));
  json.Add("format", std::string(is_dnf ? "dnf" : "cnf"));
  json.Add("algorithm", algo);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);

  WallTimer timer;
  CountResult result;
  if (is_dnf) {
    const Dnf dnf = ParseDnfOrDie(text);
    json.Add("num_vars", dnf.num_vars());
    json.Add("num_terms", dnf.num_terms());
    if (algo == "approxmc") {
      result = ApproxMcDnf(dnf, params);
    } else if (algo == "countmin") {
      result = ApproxCountMinDnf(dnf, params);
    } else if (algo == "countest") {
      result = ApproxCountEstAutoDnf(dnf, params);
    } else if (algo == "karp-luby") {
      Rng rng(params.seed);
      const KarpLubyResult kl =
          KarpLubyStopping(dnf, params.eps, params.delta, rng);
      result.estimate = kl.estimate;
      result.oracle_calls = 0;
      json.Add("samples", kl.samples);
    } else {
      Fail("count: unknown --algo " + algo +
               " (want approxmc | countmin | countest | karp-luby)",
           2);
    }
  } else {
    auto parsed = ParseDimacsCnf(text);
    if (!parsed.ok()) Fail("parse error: " + parsed.status().ToString());
    const Cnf& cnf = parsed.value();
    if (cnf.num_vars() < 1) Fail("formula must have at least one variable");
    json.Add("num_vars", cnf.num_vars());
    json.Add("num_clauses", cnf.num_clauses());
    if (algo == "approxmc") {
      result = ApproxMcCnf(cnf, params);
    } else if (algo == "countmin") {
      result = ApproxCountMinCnf(cnf, params);
    } else if (algo == "countest") {
      result = ApproxCountEstAutoCnf(cnf, params);
    } else {
      Fail("count: unknown --algo " + algo +
               " for CNF (want approxmc | countmin | countest)",
           2);
    }
  }

  json.Add("estimate", result.estimate);
  json.Add("oracle_calls", result.oracle_calls);
  if (result.rows > 0) json.Add("rows", result.rows);
  if (result.thresh > 0) json.Add("thresh", result.thresh);
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// mcf0 dnf  (distributed, §4)
// ---------------------------------------------------------------------------

int RunDnf(const CommonOptions& opts) {
  DistributedParams params;
  params.eps = opts.eps;
  params.delta = opts.delta;
  params.seed = opts.seed;
  if (opts.sites < 1) Fail("--sites must be >= 1", 2);

  const Dnf dnf = ParseDnfOrDie(ReadInput(SingleInput(opts)));
  const std::vector<Dnf> sites = PartitionDnf(dnf, opts.sites);

  const std::string algo = opts.algo.empty() ? "minimum" : opts.algo;
  WallTimer timer;
  DistributedResult result;
  if (algo == "minimum") {
    result = DistributedMinimumDnf(sites, params);
  } else if (algo == "bucketing") {
    result = DistributedBucketingDnf(sites, params);
  } else if (algo == "estimation") {
    result = DistributedEstimationDnf(sites, params);
  } else {
    Fail("dnf: unknown --algo " + algo +
             " (want minimum | bucketing | estimation)",
         2);
  }

  JsonObject json = NewJson("dnf");
  json.Add("input", SingleInput(opts));
  json.Add("algorithm", algo);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);
  json.Add("num_vars", dnf.num_vars());
  json.Add("num_terms", dnf.num_terms());
  json.Add("sites", opts.sites);
  json.Add("estimate", result.estimate);
  json.Add("rows", result.rows);
  json.Add("thresh", result.thresh);
  json.Add("bits_to_sites", result.comm.bits_to_sites);
  json.Add("bits_from_sites", result.comm.bits_from_sites);
  json.Add("total_bits", result.comm.total_bits());
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// mcf0 stream  (structured sets, §5)
// ---------------------------------------------------------------------------

int RunStream(const CommonOptions& opts) {
  const Dnf dnf = ParseDnfOrDie(ReadInput(SingleInput(opts)));

  StructuredF0Params params;
  params.n = dnf.num_vars();
  params.eps = opts.eps;
  params.delta = opts.delta;
  params.seed = opts.seed;
  const std::string algo = opts.algo.empty() ? "minimum" : opts.algo;
  if (algo == "minimum") {
    params.algorithm = StructuredF0Algorithm::kMinimum;
  } else if (algo == "bucketing") {
    params.algorithm = StructuredF0Algorithm::kBucketing;
  } else {
    Fail("stream: unknown --algo " + algo + " (want minimum | bucketing)", 2);
  }

  WallTimer timer;
  StructuredF0 estimator(params);
  // Each term is one structured-set stream item (a width-w cube).
  for (const Term& term : dnf.terms()) {
    estimator.AddTerms({term});
  }

  JsonObject json = NewJson("stream");
  json.Add("input", SingleInput(opts));
  json.Add("algorithm", algo);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);
  json.Add("n", params.n);
  json.Add("items", dnf.num_terms());
  json.Add("estimate", estimator.Estimate());
  json.Add("oracle_calls", estimator.oracle_calls());
  json.Add("space_bits", static_cast<uint64_t>(estimator.SpaceBits()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// mcf0 sketch  (engine: durable, mergeable, parallel-friendly sketches)
// ---------------------------------------------------------------------------

/// Echoes the parameters a sketch was built from; shared by the three
/// sketch actions so their JSON shapes line up.
void AddSketchParams(JsonObject& json, const F0Params& params) {
  json.Add("algorithm", std::string(F0AlgorithmName(params.algorithm)));
  json.Add("n", params.n);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);
  json.Add("rows", F0Rows(params));
  json.Add("thresh", F0Thresh(params));
}

void AddStructuredSketchParams(JsonObject& json,
                               const StructuredF0Params& params) {
  json.Add("algorithm",
           std::string(params.algorithm == StructuredF0Algorithm::kMinimum
                           ? "minimum"
                           : "bucketing"));
  json.Add("n", params.n);
  json.Add("eps", params.eps);
  json.Add("delta", params.delta);
  json.Add("seed", params.seed);
  json.Add("rows", StructuredF0Rows(params));
  json.Add("thresh", StructuredF0Thresh(params));
}

/// Echoes whichever kind the unified handle holds (plus the "kind" field
/// the query/merge consumers branch on).
void AddVariantParams(JsonObject& json, const SketchVariant& sketch) {
  json.Add("kind",
           std::string(sketch.structured() ? "structured" : "raw"));
  if (sketch.structured()) {
    AddStructuredSketchParams(json, sketch.structured_sketch().params());
  } else {
    AddSketchParams(json, sketch.raw().params());
  }
}

/// Flags -> structured sketch parameters; `n` comes from the input
/// (DNF variable count / range dimensions), not --n.
StructuredF0Params StructuredParamsFromOptions(const CommonOptions& opts,
                                               int n, const char* cmd) {
  StructuredF0Params params;
  params.n = n;
  params.eps = opts.eps;
  params.delta = opts.delta;
  params.seed = opts.seed;
  const std::string algo = opts.algo.empty() ? "minimum" : opts.algo;
  if (algo == "minimum") {
    params.algorithm = StructuredF0Algorithm::kMinimum;
  } else if (algo == "bucketing") {
    params.algorithm = StructuredF0Algorithm::kBucketing;
  } else {
    Fail(std::string(cmd) + ": unknown --algo " + algo +
             " for structured input (want minimum | bucketing)",
         2);
  }
  return params;
}

/// Fails unless a `kind` input's universe of `bits` bits is within
/// kMaxStructuredUniverseBits.
void CheckUniverseOrDie(int64_t bits, const std::string& kind) {
  if (bits > kMaxStructuredUniverseBits) {
    Fail(kind + " universe exceeds " +
         std::to_string(kMaxStructuredUniverseBits) + " bits");
  }
}

/// `--input range` text format: comment lines (`c ...`), one
/// `p range <dims> <bits_per_dim>` header, then one range item per line
/// as `lo hi` pairs, one pair per dimension (inclusive bounds, each
/// within [0, 2^bits)).
std::vector<MultiDimRange> ParseRangeFileOrDie(const std::string& text,
                                               int* dims_out, int* bits_out) {
  std::istringstream lines(text);
  std::string line;
  int dims = 0;
  int bits = 0;
  bool have_header = false;
  std::vector<MultiDimRange> items;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first == "c") continue;
    if (!have_header) {
      std::string kind;
      if (first != "p" || !(tokens >> kind) || kind != "range" ||
          !(tokens >> dims >> bits) || dims < 1 || bits < 1 || bits > 64) {
        Fail("range input needs a `p range <dims> <bits>` header line");
      }
      // Bound before multiplying: a huge claimed dims must not overflow
      // the int product (UB) on its way to this check.
      CheckUniverseOrDie(static_cast<int64_t>(dims) * bits, "range");
      if (bits > kMaxRangeDimensionBits) {
        Fail("range dimension exceeds " +
             std::to_string(kMaxRangeDimensionBits) + " bits");
      }
      have_header = true;
      continue;
    }
    MultiDimRange range(dims, bits);
    std::istringstream row(line);
    const uint64_t max = (1ull << bits) - 1;
    for (int j = 0; j < dims; ++j) {
      uint64_t lo = 0;
      uint64_t hi = 0;
      if (!(row >> lo >> hi)) {
        Fail("range line needs one `lo hi` pair per dimension");
      }
      if (lo > hi || hi > max) {
        Fail("range bounds out of order or outside the dimension domain");
      }
      range.SetDim(j, DimRange{lo, hi, 0});
    }
    std::string extra;
    if (row >> extra) Fail("trailing tokens on range line");
    if (RangeTermEnumerator(range).LiteralBound() >
        kMaxRangeExpansionLiterals) {
      Fail("range item expands to more than " +
           std::to_string(kMaxRangeExpansionLiterals) +
           " literals (Lemma 4 terms x bits)");
    }
    items.push_back(std::move(range));
  }
  if (!have_header) {
    Fail("range input needs a `p range <dims> <bits>` header line");
  }
  *dims_out = dims;
  *bits_out = bits;
  return items;
}

/// `--input affine` text format (Theorem 7): comment lines (`c ...`),
/// then one item per block —
///   a <n> <rank>
///   <rank> lines of n '0'/'1' characters (the rows of A)
///   one line of <rank> '0'/'1' characters (the offset b)
/// Each item is the affine space {x in {0,1}^n : A x = b}. All items
/// must agree on n.
std::vector<StructuredItem> ParseAffineFileOrDie(const std::string& text,
                                                 int* n_out) {
  std::istringstream lines(text);
  std::string line;
  auto next_line = [&](std::string* out) -> bool {
    while (std::getline(lines, line)) {
      std::istringstream tokens(line);
      std::string first;
      if (!(tokens >> first) || first == "c") continue;
      *out = line;
      return true;
    }
    return false;
  };
  auto read_bits = [&](int want, const char* what) -> BitVec {
    std::string row;
    if (!next_line(&row)) {
      Fail(std::string("affine item ends before its ") + what);
    }
    std::istringstream tokens(row);
    std::string bits;
    std::string extra;
    if (!(tokens >> bits) || (tokens >> extra) ||
        static_cast<int>(bits.size()) != want ||
        bits.find_first_not_of("01") != std::string::npos) {
      Fail(std::string("affine ") + what + " must be exactly " +
           std::to_string(want) + " '0'/'1' characters");
    }
    return BitVec::FromString(bits);
  };
  int n = 0;
  std::vector<StructuredItem> items;
  std::string header;
  while (next_line(&header)) {
    std::istringstream tokens(header);
    std::string kind;
    int item_n = 0;
    int rank = 0;
    std::string extra;
    if (!(tokens >> kind) || kind != "a" || !(tokens >> item_n >> rank) ||
        (tokens >> extra) || item_n < 1 || rank < 1 || rank > item_n) {
      Fail("affine input needs `a <n> <rank>` item headers with "
           "1 <= rank <= n");
    }
    CheckUniverseOrDie(item_n, "affine");  // before the matrix is allocated
    if (n == 0) {
      n = item_n;
    } else if (item_n != n) {
      Fail("all affine items must share one universe width n");
    }
    Gf2Matrix a(rank, n);
    for (int r = 0; r < rank; ++r) {
      const BitVec row = read_bits(n, "matrix row");
      for (int j = 0; j < n; ++j) a.Set(r, j, row.Get(j));
    }
    BitVec b = read_bits(rank, "offset row");
    items.push_back(AffineSpaceItem{std::move(a), std::move(b)});
  }
  if (items.empty()) {
    Fail("affine input needs at least one `a <n> <rank>` item");
  }
  *n_out = n;
  return items;
}

/// Reads a `--input dnf | range | affine` file as §5 stream items — one
/// per DNF term, range or affine space — and its universe width n, which
/// must not exceed kMaxStructuredUniverseBits.
std::vector<StructuredItem> ReadStructuredItemsOrDie(const std::string& kind,
                                                     const std::string& path,
                                                     int* n_out) {
  const std::string text = ReadInput(path);
  std::vector<StructuredItem> items;
  if (kind == "affine") {
    items = ParseAffineFileOrDie(text, n_out);
  } else if (kind == "dnf") {
    const Dnf dnf = ParseDnfOrDie(text);
    *n_out = dnf.num_vars();
    for (const Term& term : dnf.terms()) {
      items.emplace_back(std::vector<Term>{term});
    }
  } else {
    int dims = 0;
    int bits = 0;
    std::vector<MultiDimRange> ranges =
        ParseRangeFileOrDie(text, &dims, &bits);
    *n_out = dims * bits;
    for (MultiDimRange& range : ranges) items.emplace_back(std::move(range));
  }
  CheckUniverseOrDie(*n_out, kind);
  return items;
}

/// Spreads `items` across `producers` threads, each feeding the engine
/// through its own Producer handle (round-robin split — the merged
/// sketch is partition-independent, so any split works). Items are
/// moved into the engine.
template <typename Engine, typename Item>
void IngestAcrossProducers(Engine& engine, std::vector<Item>& items,
                           int producers) {
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &items, p, producers] {
      auto producer = engine.MakeProducer();
      for (size_t i = p; i < items.size(); i += producers) {
        producer.Add(std::move(items[i]));
      }
      producer.Flush();
    });
  }
  for (auto& thread : threads) thread.join();
}

/// The structured build paths (`--input dnf | range | affine`): every
/// item is one §5 set, the sketch is a StructuredF0, and the file a v2
/// structured frame — the same durable object `sketch merge|query` then
/// treat uniformly with raw sketches. Sharded/multi-producer ingestion
/// goes through ShardedStructuredEngine, whose merged sketch is
/// byte-identical to the single-pass one.
int RunSketchBuildStructured(const CommonOptions& opts,
                             const std::string& input) {
  WallTimer timer;
  int n = 0;
  std::vector<StructuredItem> items =
      ReadStructuredItemsOrDie(opts.input_kind, input, &n);
  const uint64_t num_items = items.size();
  const StructuredF0Params params =
      StructuredParamsFromOptions(opts, n, "sketch build");

  std::optional<StructuredF0> sketch;
  if (opts.shards == 1 && opts.producers == 1) {
    sketch.emplace(params);
    for (const StructuredItem& item : items) AbsorbItem(*sketch, item);
  } else {
    ShardedStructuredEngine engine(params, opts.shards);
    IngestAcrossProducers(engine, items, opts.producers);
    sketch.emplace(engine.MergedSketch());
  }
  const std::string blob = SketchCodec::Encode(*sketch);
  WriteBinaryFile(opts.out, blob);

  JsonObject json = NewJson("sketch");
  json.Add("action", std::string("build"));
  json.Add("input", input);
  json.Add("input_kind", opts.input_kind);
  json.Add("kind", std::string("structured"));
  json.Add("out", opts.out);
  json.Add("format", static_cast<int>(SketchCodec::kFormatV2));
  AddStructuredSketchParams(json, sketch->params());
  json.Add("shards", opts.shards);
  json.Add("producers", opts.producers);
  json.Add("items", num_items);
  json.Add("estimate", sketch->Estimate());
  json.Add("space_bits", static_cast<uint64_t>(sketch->SpaceBits()));
  json.Add("file_bytes", static_cast<uint64_t>(blob.size()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

int RunSketchBuild(const CommonOptions& opts) {
  if (opts.out.empty()) Fail("sketch build needs --out FILE", 2);
  // Each shard is a worker thread plus a full sketch replica, and each
  // producer is a feeder thread; cap both so a typo degrades to a usage
  // error, not an uncaught std::thread failure.
  if (opts.shards < 1 || opts.shards > 256) {
    Fail("--shards must be in [1, 256]", 2);
  }
  if (opts.producers < 1 || opts.producers > 256) {
    Fail("--producers must be in [1, 256]", 2);
  }
  const std::string& input = SingleInput(opts);
  if (opts.input_kind != "raw") return RunSketchBuildStructured(opts, input);
  const F0Params params = F0ParamsFromOptions(opts, "sketch build");

  WallTimer timer;
  uint64_t elements = 0;
  std::string blob;
  double estimate = 0.0;
  size_t space_bits = 0;
  if (opts.producers > 1) {
    // Multi-producer ingestion needs the stream split across feeder
    // threads, so this path (alone) buffers the parsed elements first.
    std::vector<uint64_t> xs;
    elements = StreamElements(input, [&](std::span<const uint64_t> block) {
      xs.insert(xs.end(), block.begin(), block.end());
    });
    ShardedF0Engine engine(params, opts.shards);
    IngestAcrossProducers(engine, xs, opts.producers);
    const F0Estimator merged = engine.MergedSketch();
    estimate = merged.Estimate();
    space_bits = merged.SpaceBits();
    blob = SketchCodec::Encode(merged);
  } else if (opts.shards > 1) {
    ShardedF0Engine engine(params, opts.shards);
    {
      // Add() batches internally; the handle's destructor dispatches the
      // tail, and MergedSketch() waits for it.
      ShardedF0Engine::Producer producer = engine.MakeProducer();
      elements = StreamElements(input, [&](std::span<const uint64_t> xs) {
        for (const uint64_t x : xs) producer.Add(x);
      });
    }
    const F0Estimator merged = engine.MergedSketch();
    estimate = merged.Estimate();
    space_bits = merged.SpaceBits();
    blob = SketchCodec::Encode(merged);
  } else {
    F0Estimator estimator(params);
    elements = StreamElements(
        input, [&](std::span<const uint64_t> xs) { estimator.Add(xs); });
    estimate = estimator.Estimate();
    space_bits = estimator.SpaceBits();
    blob = SketchCodec::Encode(estimator);
  }
  WriteBinaryFile(opts.out, blob);

  JsonObject json = NewJson("sketch");
  json.Add("action", std::string("build"));
  json.Add("input", input);
  json.Add("input_kind", opts.input_kind);
  json.Add("kind", std::string("raw"));
  json.Add("out", opts.out);
  json.Add("format", static_cast<int>(SketchCodec::kFormatV2));
  AddSketchParams(json, params);
  json.Add("shards", opts.shards);
  json.Add("producers", opts.producers);
  json.Add("elements", elements);
  json.Add("estimate", estimate);
  json.Add("space_bits", static_cast<uint64_t>(space_bits));
  json.Add("file_bytes", static_cast<uint64_t>(blob.size()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

int RunSketchMerge(const CommonOptions& opts) {
  if (opts.out.empty()) Fail("sketch merge needs --out FILE", 2);
  if (opts.inputs.size() < 2) {
    Fail("sketch merge needs at least two sketch files", 2);
  }

  WallTimer timer;
  // Whole-sketch reduce: the inputs are decoded one at a time and folded
  // into the union, so decoded sketch state never exceeds the union plus
  // one input, regardless of how many shard files are being merged. (Raw
  // file bytes are still buffered; see ROADMAP for the mmap follow-on.)
  // Input labels ride through the engine, so a corrupt or mismatched
  // shard is named in this same single pass. The merged frame stays in
  // memory until the merge has succeeded, so a failed merge leaves --out
  // as it was.
  std::vector<std::string> blobs;
  blobs.reserve(opts.inputs.size());
  for (const std::string& path : opts.inputs) {
    blobs.push_back(ReadBinaryFile(path));
  }
  std::vector<LabeledSource> sources;
  sources.reserve(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    sources.push_back(LabeledSource{opts.inputs[i], blobs[i]});
  }
  std::ostringstream out;
  const Result<SketchStreamMergeStats> stats = MergeSketchStreams(sources, out);
  if (!stats.ok()) Fail(stats.status().ToString());
  const std::string merged_blob = out.str();
  // Decode the merged frame (one sketch, independent of input count) for
  // the estimate and parameter echo in the JSON result.
  Result<SketchVariant> merged = SketchVariant::Decode(merged_blob);
  if (!merged.ok()) Fail(opts.out + ": " + merged.status().ToString());
  WriteBinaryFile(opts.out, merged_blob);

  JsonObject json = NewJson("sketch");
  json.Add("action", std::string("merge"));
  json.Add("inputs", static_cast<uint64_t>(opts.inputs.size()));
  json.Add("out", opts.out);
  json.Add("format", static_cast<int>(SketchCodec::kFormatV2));
  AddVariantParams(json, merged.value());
  json.Add("estimate", merged.value().Estimate());
  json.Add("space_bits", static_cast<uint64_t>(merged.value().SpaceBits()));
  json.Add("file_bytes", static_cast<uint64_t>(merged_blob.size()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

int RunSketchQuery(const CommonOptions& opts) {
  WallTimer timer;
  const std::string blob = ReadBinaryFile(SingleInput(opts));
  Result<SketchVariant> decoded = SketchVariant::Decode(blob);
  if (!decoded.ok()) {
    Fail(SingleInput(opts) + ": " + decoded.status().ToString());
  }
  const SketchVariant& sketch = decoded.value();
  // O(1) header peek; the successful decode above already validated it.
  const int format = SketchCodec::PeekFormatVersion(blob).value();

  JsonObject json = NewJson("sketch");
  json.Add("action", std::string("query"));
  json.Add("input", SingleInput(opts));
  json.Add("format", format);
  AddVariantParams(json, sketch);
  json.Add("estimate", sketch.Estimate());
  json.Add("space_bits", static_cast<uint64_t>(sketch.SpaceBits()));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

int RunSketch(int argc, char** argv) {
  if (argc < 1) {
    Fail("sketch needs an action: build | merge | query", 2);
  }
  const std::string action = argv[0];
  const CommonOptions opts = ParseOptions(argc - 1, argv + 1);
  if (action == "build") return RunSketchBuild(opts);
  if (action == "merge") return RunSketchMerge(opts);
  if (action == "query") return RunSketchQuery(opts);
  Fail("sketch: unknown action '" + action + "' (want build | merge | query)",
       2);
  return 2;  // unreachable
}

// ---------------------------------------------------------------------------
// mcf0 serve / push  (the networked sketch service; docs/serve.md)
// ---------------------------------------------------------------------------

// The signal handler's line to the serve loop. RequestDrain is
// async-signal-safe (an atomic flag plus a self-pipe write); the
// pointer itself is a lock-free atomic so the handler's read never
// races the main thread's set/reset around Run().
std::atomic<net::SketchServer*> g_serve_server{nullptr};

void HandleDrainSignal(int) {
  net::SketchServer* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

int RunServe(const CommonOptions& opts) {
  if (opts.shards < 1 || opts.shards > 256) {
    Fail("--shards must be in [1, 256]", 2);
  }
  if (opts.credit_window < 1) Fail("--credit-window must be >= 1", 2);
  if (opts.batch_items < 1 ||
      static_cast<uint64_t>(opts.batch_items) > net::kMaxBatchItemsLimit) {
    Fail("--batch-items out of range", 2);
  }
  if (!opts.inputs.empty()) {
    Fail("serve takes no input file (clients push the stream)", 2);
  }
  const bool structured = opts.input_kind != "raw";

  WallTimer timer;
  // Exactly one of the engines runs, picked by --input; both speak
  // through the same EngineBackend surface.
  std::optional<ShardedF0Engine> raw_engine;
  std::optional<ShardedStructuredEngine> structured_engine;
  std::unique_ptr<net::EngineBackend> backend;
  if (structured) {
    if (opts.n < 1 || opts.n > kMaxStructuredUniverseBits) {
      Fail("--n must be in [1, " +
               std::to_string(kMaxStructuredUniverseBits) +
               "] for structured serving",
           2);
    }
    const StructuredF0Params params =
        StructuredParamsFromOptions(opts, opts.n, "serve");
    structured_engine.emplace(params, opts.shards);
    backend = std::make_unique<
        net::ShardedEngineBackend<ShardedStructuredEngine>>(
        &*structured_engine);
  } else {
    const F0Params params = F0ParamsFromOptions(opts, "serve");
    raw_engine.emplace(params, opts.shards);
    backend = std::make_unique<net::ShardedEngineBackend<ShardedF0Engine>>(
        &*raw_engine);
  }

  net::ServerOptions server_options;
  server_options.host = opts.host;
  server_options.port = opts.port;
  server_options.credit_window = static_cast<uint64_t>(opts.credit_window);
  server_options.max_batch_items = static_cast<uint64_t>(opts.batch_items);
  server_options.drain_timeout_ms = opts.drain_timeout_ms;
  server_options.metrics_interval_ms = opts.metrics_interval_ms;
  net::SketchServer server(backend.get(), server_options);
  Status status = server.Start();
  if (!status.ok()) Fail("serve: " + status.ToString());

  g_serve_server.store(&server, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = HandleDrainSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // Startup announcement: the bound port (ephemeral with --port 0) and
  // pid, so wrappers and tests can dial in and later signal the drain.
  {
    JsonObject json = NewJson("serve");
    json.Add("event", std::string("listening"));
    json.Add("host", opts.host);
    json.Add("port", server.port());
    json.Add("pid", static_cast<uint64_t>(::getpid()));
    json.Add("kind", std::string(structured ? "structured" : "raw"));
    json.Add("shards", opts.shards);
    json.Add("credit_window", opts.credit_window);
    json.Add("batch_items", opts.batch_items);
    json.Print();
    std::fflush(stdout);
  }

  status = server.Run();
  g_serve_server.store(nullptr, std::memory_order_release);
  if (!status.ok()) Fail("serve: " + status.ToString());

  uint64_t file_bytes = 0;
  if (!opts.out.empty()) {
    WriteBinaryFile(opts.out, server.final_sketch());
    file_bytes = server.final_sketch().size();
  }

  JsonObject json = NewJson("serve");
  json.Add("event", std::string("drained"));
  json.Add("kind", std::string(structured ? "structured" : "raw"));
  json.Add("connections", server.connections_served());
  json.Add("batches", server.batches_accepted());
  json.Add("items", server.items_accepted());
  // Final byte/error totals come from the same telemetry registry a
  // live kStatsQuery is answered from, so this drained summary and a
  // stats frame taken during the run can never disagree on what the
  // server counted (docs/observability.md).
  {
    obs::Registry& registry = obs::Registry::Global();
    json.Add("bytes_in",
             registry.GetCounter("mcf0_serve_bytes_in_total")->Value());
    json.Add("bytes_out",
             registry.GetCounter("mcf0_serve_bytes_out_total")->Value());
    uint64_t error_frames = 0;
    std::string errors = "{";
    for (int code = 0; code <= static_cast<int>(StatusCode::kDeadlineExceeded);
         ++code) {
      const char* name = StatusCodeName(static_cast<StatusCode>(code));
      const uint64_t count =
          registry
              .GetCounter("mcf0_serve_error_frames_total", {{"code", name}})
              ->Value();
      error_frames += count;
      if (count == 0) continue;  // only codes actually sent
      if (errors.size() > 1) errors += ", ";
      errors += "\"" + std::string(name) + "\": " + std::to_string(count);
    }
    errors += "}";
    json.Add("error_frames", error_frames);
    json.AddRaw("errors", errors);
  }
  json.Add("estimate", server.final_estimate());
  if (!opts.out.empty()) {
    json.Add("out", opts.out);
    json.Add("file_bytes", file_bytes);
  }
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

/// Dies with the mcf0 exit-code convention on a failed network call.
void CheckNet(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

int RunPush(const CommonOptions& opts) {
  if (opts.port < 1) Fail("push needs --port (see `mcf0 serve`)", 2);
  const std::string& input = SingleInput(opts);
  const bool structured = opts.input_kind != "raw";

  net::ClientOptions client_options;
  client_options.host = opts.host;
  client_options.port = opts.port;
  client_options.recv_timeout_ms = opts.timeout_ms;
  WallTimer timer;
  Result<net::PushClient> connected = net::PushClient::Connect(
      structured ? net::StreamKind::kStructured : net::StreamKind::kRaw,
      client_options);
  if (!connected.ok()) Fail("push: " + connected.status().ToString());
  net::PushClient client = std::move(connected).value();

  uint64_t items = 0;
  if (!structured) {
    items = StreamElements(input, [&client](std::span<const uint64_t> xs) {
      for (const uint64_t x : xs) CheckNet(client.Push({&x, 1}), "push");
    });
  } else {
    // Same input syntax as `sketch build`, then one protocol item per
    // parsed set. The server validates widths too; checking against the
    // advertised parameters here just fails faster and clearer.
    const int server_n =
        std::get<StructuredF0Params>(client.welcome().params).n;
    int n = 0;
    std::vector<StructuredItem> parsed =
        ReadStructuredItemsOrDie(opts.input_kind, input, &n);
    if (n != server_n) {
      Fail("push: input has n=" + std::to_string(n) +
           " but the server streams n=" + std::to_string(server_n));
    }
    items = parsed.size();
    for (StructuredItem& item : parsed) {
      CheckNet(client.PushItem(std::move(item)), "push");
    }
  }
  CheckNet(client.Flush(), "push");

  // A live query races other producers by design — the server answers
  // from a snapshot (estimate: a merge of the engine shards; stats: the
  // telemetry registry) without draining anyone.
  double estimate = 0.0;
  uint64_t server_items = 0;
  std::string stats_json;
  if (opts.query == "estimate") {
    Result<net::EstimateFrame> result = client.QueryEstimate();
    if (!result.ok()) Fail("push: " + result.status().ToString());
    estimate = result.value().estimate;
    server_items = result.value().items_ingested;
  } else if (opts.query == "stats") {
    Result<net::StatsReportFrame> result = client.QueryStats();
    if (!result.ok()) Fail("push: " + result.status().ToString());
    // Flattened metric keys can carry label renderings (quotes and all),
    // so they go through the same escaping as any JSON string.
    stats_json = "{";
    for (const net::StatsEntry& entry : result.value().entries) {
      if (stats_json.size() > 1) stats_json += ", ";
      stats_json += "\"" + JsonObject::Escape(entry.name) +
                    "\": " + std::to_string(entry.value);
    }
    stats_json += "}";
  }
  const uint64_t batches = client.batches_sent();
  CheckNet(client.Close(), "push");

  JsonObject json = NewJson("push");
  json.Add("input", input);
  json.Add("input_kind", opts.input_kind);
  json.Add("host", opts.host);
  json.Add("port", opts.port);
  json.Add("items", items);
  json.Add("batches", batches);
  if (opts.query == "estimate") {
    json.Add("estimate", estimate);
    json.Add("server_items", server_items);
  } else if (opts.query == "stats") {
    json.AddRaw("stats", stats_json);
  }
  json.Add("drain_requested", std::string(client.drain_requested() ? "true"
                                                                   : "false"));
  json.Add("time_ms", timer.Seconds() * 1e3);
  json.Print();
  return 0;
}

}  // namespace
}  // namespace mcf0

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "help") == 0 ||
      std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    return mcf0::cli::UsageExit(mcf0::kUsage, argc < 2 ? 2 : 0);
  }
  const std::string command = argv[1];
  if (command == "sketch") return mcf0::RunSketch(argc - 2, argv + 2);
  const mcf0::CommonOptions opts = mcf0::ParseOptions(argc - 2, argv + 2);
  if (command == "f0") return mcf0::RunF0(opts);
  if (command == "count") return mcf0::RunCount(opts);
  if (command == "dnf") return mcf0::RunDnf(opts);
  if (command == "stream") return mcf0::RunStream(opts);
  if (command == "serve") return mcf0::RunServe(opts);
  if (command == "push") return mcf0::RunPush(opts);
  std::fprintf(stderr, "mcf0: unknown subcommand '%s'\n\n%s", command.c_str(),
               mcf0::kUsage);
  return 2;
}
