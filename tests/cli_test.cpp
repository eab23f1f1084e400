// End-to-end tests for the unified `mcf0` CLI: run the real binary on tiny
// embedded fixtures and check the JSON output shape plus estimate sanity.
// The binary path is injected by CMake as MCF0_CLI_PATH.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace mcf0 {
namespace {

#ifndef MCF0_CLI_PATH
#error "MCF0_CLI_PATH must be defined to the mcf0 binary path"
#endif

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs `mcf0 <args>` and captures stdout (stderr passes through).
RunOutput RunCli(const std::string& args) {
  const std::string command = std::string(MCF0_CLI_PATH) + " " + args;
  RunOutput out;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << command;
  if (pipe == nullptr) return out;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string WriteFixture(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  EXPECT_TRUE(out.good());
  return path;
}

// Pulls a numeric field out of the flat JSON object the CLI prints.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key << " in " << json;
  if (pos == std::string::npos) return -1;
  const std::string rest = json.substr(pos + needle.size());
  try {
    return std::stod(rest);
  } catch (const std::exception&) {
    // e.g. `null`, the CLI's rendering of a non-finite double.
    ADD_FAILURE() << "key " << key << " is not numeric in " << json;
    return -1;
  }
}

void ExpectJsonShape(const std::string& json, const std::string& command) {
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_EQ(json[json.size() - 2], '}') << json;  // trailing newline
  EXPECT_NE(json.find("\"command\": \"" + command + "\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"estimate\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"time_ms\":"), std::string::npos) << json;
}

// (x1 or x2) and (x3 or x4) over 4 vars: 3 * 4 * 3 / 4 = 9 models.
constexpr const char kCnfFixture[] =
    "c tiny fixture\n"
    "p cnf 4 2\n"
    "1 2 0\n"
    "3 4 0\n";
constexpr double kCnfModels = 9.0;

// x1  or  (!x1 and x2) over 4 vars: 8 + 4 = 12 models.
constexpr const char kDnfFixture[] =
    "p dnf 4 2\n"
    "1 0\n"
    "-1 2 0\n";
constexpr double kDnfModels = 12.0;

TEST(CliTest, HelpAndUsageErrors) {
  EXPECT_EQ(RunCli("help").exit_code, 0);
  EXPECT_EQ(RunCli("frobnicate 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("count 2>/dev/null").exit_code, 2);  // missing input
  // Tiny, NaN, or infinite eps/delta would abort via library CHECKs (or
  // overflow the Thresh formula); the flag bounds must turn every one of
  // them into a clean usage error.
  EXPECT_EQ(RunCli("f0 --eps 1e-10 - < /dev/null 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("f0 --eps nan - < /dev/null 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("f0 --eps inf - < /dev/null 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("f0 --delta nan - < /dev/null 2>/dev/null").exit_code, 2);
}

TEST(CliTest, F0ExactRegimeCountsDistinct) {
  // 64 distinct values, each repeated 3 times. Thresh = 96/0.8^2 = 150 > 64,
  // so the Minimum sketch is in its exact regime and the estimate is exact.
  std::string stream;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int value = 1; value <= 64; ++value) {
      stream += std::to_string(value * 977) + "\n";
    }
  }
  const std::string path = WriteFixture("f0_stream.txt", stream);
  const RunOutput out = RunCli("f0 --n 32 --seed 7 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  ExpectJsonShape(out.stdout_text, "f0");
  EXPECT_DOUBLE_EQ(JsonNumber(out.stdout_text, "estimate"), 64.0);
  EXPECT_EQ(JsonNumber(out.stdout_text, "elements"), 192.0);
  EXPECT_GT(JsonNumber(out.stdout_text, "space_bits"), 0.0);
}

TEST(CliTest, F0ReadsStdinWithDash) {
  const std::string path = WriteFixture("f0_stdin.txt", "1 2 3 4 5\n");
  const RunOutput out = RunCli("f0 --n 16 - < " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_DOUBLE_EQ(JsonNumber(out.stdout_text, "estimate"), 5.0);
}

TEST(CliTest, CountCnfApproxMc) {
  const std::string path = WriteFixture("fixture.cnf", kCnfFixture);
  const RunOutput out =
      RunCli("count --eps 0.8 --delta 0.2 --seed 3 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  ExpectJsonShape(out.stdout_text, "count");
  EXPECT_NE(out.stdout_text.find("\"format\": \"cnf\""), std::string::npos);
  EXPECT_NE(out.stdout_text.find("\"oracle_calls\":"), std::string::npos);
  const double estimate = JsonNumber(out.stdout_text, "estimate");
  // (eps, delta) guarantee with a wide safety margin for one fixed seed.
  EXPECT_GE(estimate, kCnfModels / 4.0);
  EXPECT_LE(estimate, kCnfModels * 4.0);
  EXPECT_GT(JsonNumber(out.stdout_text, "oracle_calls"), 0.0);
}

TEST(CliTest, CountDnfAllAlgorithms) {
  // Fixture names are per-test: ctest -j runs each TEST as its own
  // process, and a shared name races (one truncates while another reads).
  const std::string path = WriteFixture("count_algos.dnf", kDnfFixture);
  for (const std::string algo :
       {"approxmc", "countmin", "countest", "karp-luby"}) {
    const RunOutput out =
        RunCli("count --algo " + algo + " --seed 5 " + path);
    ASSERT_EQ(out.exit_code, 0) << algo << ": " << out.stdout_text;
    ExpectJsonShape(out.stdout_text, "count");
    const double estimate = JsonNumber(out.stdout_text, "estimate");
    EXPECT_GE(estimate, kDnfModels / 4.0) << algo;
    EXPECT_LE(estimate, kDnfModels * 4.0) << algo;
  }
}

TEST(CliTest, CountAtTheEpsFloorReservesOnlyWhatTheUnionHolds) {
  // --eps 1e-6 puts Thresh near 9.6e13. The 7-model DNF must be counted
  // exactly, without reserving room for Thresh solutions up front.
  const std::string path =
      WriteFixture("eps_floor.dnf", "p dnf 4 2\n1 2 0\n-3 4 0\n");
  for (const std::string algo : {"countmin", "approxmc"}) {
    const RunOutput out =
        RunCli("count --algo " + algo + " --eps 1e-6 " + path);
    ASSERT_EQ(out.exit_code, 0) << algo << ": " << out.stdout_text;
    ExpectJsonShape(out.stdout_text, "count");
    EXPECT_EQ(JsonNumber(out.stdout_text, "estimate"), 7.0) << algo;
  }
}

TEST(CliTest, DistributedDnfReportsCommunication) {
  const std::string path = WriteFixture("distributed.dnf", kDnfFixture);
  const RunOutput out = RunCli("dnf --sites 2 --seed 11 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  ExpectJsonShape(out.stdout_text, "dnf");
  EXPECT_GT(JsonNumber(out.stdout_text, "total_bits"), 0.0);
  const double estimate = JsonNumber(out.stdout_text, "estimate");
  EXPECT_GE(estimate, kDnfModels / 4.0);
  EXPECT_LE(estimate, kDnfModels * 4.0);
}

TEST(CliTest, StructuredStreamEstimatesUnion) {
  const std::string path = WriteFixture("stream_union.dnf", kDnfFixture);
  const RunOutput out = RunCli("stream --seed 13 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  ExpectJsonShape(out.stdout_text, "stream");
  EXPECT_EQ(JsonNumber(out.stdout_text, "items"), 2.0);
  const double estimate = JsonNumber(out.stdout_text, "estimate");
  EXPECT_GE(estimate, kDnfModels / 4.0);
  EXPECT_LE(estimate, kDnfModels * 4.0);
}

TEST(CliTest, RejectsNonNumericFlagValues) {
  // Must be a clean usage error (exit 2), not an uncaught std::stod throw.
  EXPECT_EQ(RunCli("count --eps banana x.cnf 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("count --seed -3 x.cnf 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("f0 --n 12cats - 2>/dev/null").exit_code, 2);
}

TEST(CliTest, RejectsMalformedInput) {
  const std::string path = WriteFixture("bad.cnf", "p cnf oops\n");
  EXPECT_EQ(RunCli("count " + path + " 2>/dev/null").exit_code, 1);
  const std::string bad_stream = WriteFixture("bad.txt", "12 potato\n");
  EXPECT_EQ(RunCli("f0 " + bad_stream + " 2>/dev/null").exit_code, 1);
  // A negative number is not a u64, not 2^64 - 1: every raw element
  // reader refuses it with the list message, and writes no sketch.
  const std::string negative = WriteFixture("negative.txt", "5 -1 7\n");
  const std::string out = testing::TempDir() + "/negative.mcf0";
  std::remove(out.c_str());
  for (const std::string& command :
       {"f0 " + negative, "sketch build --out " + out + " " + negative}) {
    const RunOutput run = RunCli(command + " 2>&1");
    EXPECT_EQ(run.exit_code, 1) << command << ": " << run.stdout_text;
    EXPECT_NE(run.stdout_text.find(
                  "input is not a whitespace-separated u64 list"),
              std::string::npos)
        << command << ": " << run.stdout_text;
  }
  EXPECT_FALSE(std::ifstream(out).good());
}

TEST(CliTest, ZeroVariableFormulaIsACleanError) {
  // Must exit 1, not abort on an internal MCF0_CHECK.
  const std::string path = WriteFixture("empty.dnf", "p dnf 0 0\n");
  EXPECT_EQ(RunCli("stream " + path + " 2>/dev/null").exit_code, 1);
  EXPECT_EQ(RunCli("count " + path + " 2>/dev/null").exit_code, 1);
}

TEST(CliTest, EveryResultCarriesBuildProvenance) {
  const std::string path = WriteFixture("prov.txt", "1 2 3\n");
  const RunOutput out = RunCli("f0 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("\"version\": \""), std::string::npos)
      << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("\"git_sha\": \""), std::string::npos)
      << out.stdout_text;
}

TEST(CliTest, SketchMapReduceMatchesSinglePassF0) {
  // 120 distinct elements < Thresh 150: the Minimum sketch is exact, so
  // shell map-reduce (build halves -> merge -> query) must equal the
  // single-pass `f0` answer exactly. Loop the other algorithms too; for
  // them equality of the split/merged estimate with the single-pass
  // estimate still holds exactly because the merge is an exact union.
  std::string first_half;
  std::string second_half;
  std::string full;
  for (int value = 1; value <= 120; ++value) {
    const std::string line = std::to_string(value * 7919) + "\n";
    (value <= 60 ? first_half : second_half) += line;
    full += line;
  }
  const std::string path_a = WriteFixture("shard_a.txt", first_half);
  const std::string path_b = WriteFixture("shard_b.txt", second_half);
  const std::string path_full = WriteFixture("shard_full.txt", full);
  const std::string dir = testing::TempDir();

  for (const std::string algo : {"minimum", "bucketing", "estimation"}) {
    const std::string common = " --seed 7 --algo " + algo + " ";
    const std::string sketch_a = dir + "/a_" + algo + ".mcf0";
    const std::string sketch_b = dir + "/b_" + algo + ".mcf0";
    const std::string merged = dir + "/m_" + algo + ".mcf0";
    ASSERT_EQ(RunCli("sketch build" + common + "--out " + sketch_a + " " +
                     path_a)
                  .exit_code,
              0);
    ASSERT_EQ(RunCli("sketch build" + common + "--out " + sketch_b + " " +
                     path_b)
                  .exit_code,
              0);
    const RunOutput merge_out = RunCli("sketch merge --out " + merged + " " +
                                       sketch_a + " " + sketch_b);
    ASSERT_EQ(merge_out.exit_code, 0) << merge_out.stdout_text;
    const RunOutput query_out = RunCli("sketch query " + merged);
    ASSERT_EQ(query_out.exit_code, 0) << query_out.stdout_text;
    ExpectJsonShape(query_out.stdout_text, "sketch");

    const RunOutput f0_out = RunCli("f0" + common + path_full);
    ASSERT_EQ(f0_out.exit_code, 0) << f0_out.stdout_text;
    const double single_pass = JsonNumber(f0_out.stdout_text, "estimate");
    EXPECT_DOUBLE_EQ(JsonNumber(query_out.stdout_text, "estimate"),
                     single_pass)
        << algo;
    if (algo == "minimum") {
      EXPECT_DOUBLE_EQ(single_pass, 120.0);
    }
  }
}

TEST(CliTest, SketchShardedBuildMatchesSerialBuild) {
  std::string stream;
  for (int value = 1; value <= 100; ++value) {
    stream += std::to_string(value * 977) + "\n";
  }
  const std::string path = WriteFixture("sharded.txt", stream);
  const std::string serial = testing::TempDir() + "/serial.mcf0";
  const std::string sharded = testing::TempDir() + "/sharded.mcf0";
  ASSERT_EQ(RunCli("sketch build --seed 5 --out " + serial + " " + path)
                .exit_code,
            0);
  const RunOutput out = RunCli("sketch build --seed 5 --shards 3 --out " +
                               sharded + " " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_DOUBLE_EQ(JsonNumber(out.stdout_text, "estimate"), 100.0);
  // Same params + same stream => byte-identical sketch files, no matter
  // how ingestion was parallelized.
  std::ifstream serial_in(serial, std::ios::binary);
  std::ifstream sharded_in(sharded, std::ios::binary);
  const std::string serial_bytes(
      (std::istreambuf_iterator<char>(serial_in)),
      std::istreambuf_iterator<char>());
  const std::string sharded_bytes(
      (std::istreambuf_iterator<char>(sharded_in)),
      std::istreambuf_iterator<char>());
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, sharded_bytes);

  // Multi-producer ingestion (4 feeder threads into 3 shards) leaves no
  // trace either.
  const std::string multi = testing::TempDir() + "/multiproducer.mcf0";
  const RunOutput multi_out =
      RunCli("sketch build --seed 5 --shards 3 --producers 4 --out " + multi +
             " " + path);
  ASSERT_EQ(multi_out.exit_code, 0) << multi_out.stdout_text;
  std::ifstream multi_in(multi, std::ios::binary);
  const std::string multi_bytes((std::istreambuf_iterator<char>(multi_in)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(serial_bytes, multi_bytes);
}

TEST(CliTest, SinglePassBlockBuildsMatchShardedBuilds) {
  // Single-pass raw builds feed the sketch 4,096 parsed elements at a
  // time; 10,000 elements make two full blocks and a ragged tail. The
  // bytes must equal the sharded engine's, and `f0` must report what
  // `sketch query` reads back. --delta 0.9 keeps Estimation at 6 rows.
  std::string stream;
  Rng rng(10'000);
  for (int i = 0; i < 10'000; ++i) {
    stream += std::to_string(rng.NextU64() >> 32) + "\n";
  }
  const std::string path = WriteFixture("blocks.txt", stream);
  const std::string dir = testing::TempDir();
  for (const std::string algo : {"estimation", "bucketing"}) {
    const std::string common = " --seed 3 --delta 0.9 --algo " + algo + " ";
    const std::string single = dir + "/blocks_single_" + algo + ".mcf0";
    const std::string sharded = dir + "/blocks_sharded_" + algo + ".mcf0";
    const RunOutput build =
        RunCli("sketch build" + common + "--out " + single + " " + path);
    ASSERT_EQ(build.exit_code, 0) << build.stdout_text;
    EXPECT_DOUBLE_EQ(JsonNumber(build.stdout_text, "elements"), 10'000.0);
    ASSERT_EQ(RunCli("sketch build" + common + "--shards 3 --out " + sharded +
                     " " + path)
                  .exit_code,
              0);
    std::ifstream single_in(single, std::ios::binary);
    std::ifstream sharded_in(sharded, std::ios::binary);
    const std::string single_bytes(
        (std::istreambuf_iterator<char>(single_in)),
        std::istreambuf_iterator<char>());
    const std::string sharded_bytes(
        (std::istreambuf_iterator<char>(sharded_in)),
        std::istreambuf_iterator<char>());
    EXPECT_FALSE(single_bytes.empty()) << algo;
    EXPECT_EQ(single_bytes, sharded_bytes) << algo;

    const RunOutput f0 = RunCli("f0" + common + path);
    ASSERT_EQ(f0.exit_code, 0) << f0.stdout_text;
    const RunOutput query = RunCli("sketch query " + single);
    ASSERT_EQ(query.exit_code, 0) << query.stdout_text;
    EXPECT_DOUBLE_EQ(JsonNumber(f0.stdout_text, "estimate"),
                     JsonNumber(query.stdout_text, "estimate"))
        << algo;
  }

  // Every block reaches the sketch, the ragged tail too: 10,000 elements
  // over 99 distinct values, one only first and one only last, are
  // counted exactly in Minimum's exact regime (< Thresh 150 values).
  std::string cycled = "5000\n";
  for (int i = 1; i < 9'999; ++i) cycled += std::to_string(i % 97) + "\n";
  cycled += "6000\n";
  const RunOutput exact =
      RunCli("f0 --algo minimum " + WriteFixture("cycled.txt", cycled));
  ASSERT_EQ(exact.exit_code, 0) << exact.stdout_text;
  EXPECT_DOUBLE_EQ(JsonNumber(exact.stdout_text, "elements"), 10'000.0);
  EXPECT_DOUBLE_EQ(JsonNumber(exact.stdout_text, "estimate"), 99.0);
}

TEST(CliTest, SketchMerge32ShardsIsByteIdenticalToSinglePass) {
  // The reducer contract end to end: build 32 shard sketches, merge them
  // (`sketch merge` folds one decoded input at a time into the union, so
  // its memory stays at two sketches no matter the shard count), and the
  // merged file must be byte-identical to a single-pass build over the
  // whole stream.
  constexpr int kShards = 32;
  std::vector<std::string> shard_streams(kShards);
  std::string full;
  for (int i = 0; i < 600; ++i) {
    const std::string line = std::to_string((i * 2654435761ull) % 50021) +
                             "\n";
    shard_streams[i % kShards] += line;
    full += line;
  }
  const std::string dir = testing::TempDir();
  const std::string path_full = WriteFixture("merge32_full.txt", full);

  auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  const std::string common = " --seed 9 ";
  std::string inputs;
  for (int s = 0; s < kShards; ++s) {
    const std::string stream_path = WriteFixture(
        "merge32_" + std::to_string(s) + ".txt", shard_streams[s]);
    const std::string sketch_path =
        dir + "/merge32_" + std::to_string(s) + ".mcf0";
    ASSERT_EQ(RunCli("sketch build" + common + "--out " + sketch_path + " " +
                     stream_path)
                  .exit_code,
              0);
    inputs += " " + sketch_path;
  }
  const std::string single = dir + "/merge32_single.mcf0";
  ASSERT_EQ(
      RunCli("sketch build" + common + "--out " + single + " " + path_full)
          .exit_code,
      0);
  const std::string merged = dir + "/merge32_merged.mcf0";
  const RunOutput merge_out =
      RunCli("sketch merge" + common + "--out " + merged + inputs);
  ASSERT_EQ(merge_out.exit_code, 0) << merge_out.stdout_text;
  EXPECT_EQ(JsonNumber(merge_out.stdout_text, "inputs"), kShards);

  const std::string single_bytes = read_bytes(single);
  EXPECT_FALSE(single_bytes.empty());
  EXPECT_EQ(read_bytes(merged), single_bytes);
}

TEST(CliTest, SketchQueryAndMergeReadGoldenV1File) {
  // v1 is read-only: query reports a v1 file's own version, and merge
  // reads it (here mixed with the same state at v2) and writes v2.
  const std::string v1 =
      std::string(MCF0_TEST_DATA_DIR) + "/bucketing_a_v1.mcf0";
  const std::string v2 =
      std::string(MCF0_TEST_DATA_DIR) + "/bucketing_a_v2.mcf0";
  const RunOutput query = RunCli("sketch query " + v1);
  ASSERT_EQ(query.exit_code, 0) << query.stdout_text;
  EXPECT_EQ(JsonNumber(query.stdout_text, "format"), 1.0);

  const std::string merged = testing::TempDir() + "/golden_v1_merged.mcf0";
  const RunOutput merge =
      RunCli("sketch merge --out " + merged + " " + v1 + " " + v2);
  ASSERT_EQ(merge.exit_code, 0) << merge.stdout_text;
  EXPECT_EQ(JsonNumber(merge.stdout_text, "format"), 2.0);
  EXPECT_DOUBLE_EQ(JsonNumber(merge.stdout_text, "estimate"),
                   JsonNumber(query.stdout_text, "estimate"));

  const RunOutput requery = RunCli("sketch query " + merged);
  ASSERT_EQ(requery.exit_code, 0) << requery.stdout_text;
  EXPECT_EQ(JsonNumber(requery.stdout_text, "format"), 2.0);
  EXPECT_DOUBLE_EQ(JsonNumber(requery.stdout_text, "estimate"),
                   JsonNumber(query.stdout_text, "estimate"));
}

TEST(CliTest, SketchUsageAndDecodeErrors) {
  const std::string dir = testing::TempDir();
  EXPECT_EQ(RunCli("sketch 2>/dev/null").exit_code, 2);
  EXPECT_EQ(RunCli("sketch frobnicate 2>/dev/null").exit_code, 2);
  // build without --out, merge with one input: usage errors.
  const std::string path = WriteFixture("u.txt", "1 2 3\n");
  EXPECT_EQ(RunCli("sketch build " + path + " 2>/dev/null").exit_code, 2);
  // --shards is capped: a typo must be a usage error, not a thread-spawn
  // crash.
  EXPECT_EQ(RunCli("sketch build --shards 0 --out x.mcf0 " + path +
                   " 2>/dev/null")
                .exit_code,
            2);
  EXPECT_EQ(RunCli("sketch build --shards 99999 --out x.mcf0 " + path +
                   " 2>/dev/null")
                .exit_code,
            2);
  const std::string sketch = dir + "/u.mcf0";
  ASSERT_EQ(
      RunCli("sketch build --out " + sketch + " " + path).exit_code, 0);
  EXPECT_EQ(RunCli("sketch merge --out " + dir + "/v.mcf0 " + sketch +
                   " 2>/dev/null")
                .exit_code,
            2);
  // Runtime errors: missing file, corrupt sketch, mismatched merge.
  EXPECT_EQ(RunCli("sketch query " + dir + "/nonexistent.mcf0 2>/dev/null")
                .exit_code,
            1);
  const std::string garbage = WriteFixture("garbage.mcf0", "not a sketch");
  EXPECT_EQ(RunCli("sketch query " + garbage + " 2>/dev/null").exit_code, 1);
  const std::string other = dir + "/other.mcf0";
  ASSERT_EQ(RunCli("sketch build --seed 99 --out " + other + " " + path)
                .exit_code,
            0);
  EXPECT_EQ(RunCli("sketch merge --out " + dir + "/w.mcf0 " + sketch + " " +
                   other + " 2>/dev/null")
                .exit_code,
            1);
}

TEST(CliTest, FailedMergeKeepsExistingOutput) {
  // A merge writes --out only once it has succeeded, so a failed re-run
  // leaves the last good union on disk.
  const std::string dir = testing::TempDir();
  const std::string stream = WriteFixture("keep.txt", "1 2 3 4 5\n");
  const std::string a = dir + "/keep_a.mcf0";
  const std::string b = dir + "/keep_b.mcf0";
  const std::string other = dir + "/keep_other.mcf0";
  ASSERT_EQ(RunCli("sketch build --out " + a + " " + stream).exit_code, 0);
  ASSERT_EQ(RunCli("sketch build --out " + b + " " + stream).exit_code, 0);
  ASSERT_EQ(
      RunCli("sketch build --seed 99 --out " + other + " " + stream).exit_code,
      0);
  auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  const std::string out = dir + "/keep_union.mcf0";
  ASSERT_EQ(RunCli("sketch merge --out " + out + " " + a + " " + b).exit_code,
            0);
  const std::string good = read_bytes(out);
  ASSERT_FALSE(good.empty());
  EXPECT_EQ(RunCli("sketch merge --out " + out + " " + a + " " + other +
                   " 2>/dev/null")
                .exit_code,
            1);
  EXPECT_EQ(read_bytes(out), good);
}

TEST(CliTest, StructuredSketchMapReduceMatchesSinglePass) {
  // §5 streams get the full map-reduce treatment: build structured
  // sketches from DNF shards, merge, query — and the merged file is
  // byte-identical to a single-pass build over the whole formula (whose
  // estimate equals `mcf0 stream` on the same file, since both run the
  // same StructuredF0).
  const std::string whole = WriteFixture("s_whole.dnf", kDnfFixture);
  const std::string shard_a = WriteFixture("s_a.dnf", "p dnf 4 1\n1 0\n");
  const std::string shard_b = WriteFixture("s_b.dnf", "p dnf 4 1\n-1 2 0\n");
  const std::string dir = testing::TempDir();

  for (const std::string algo : {"minimum", "bucketing"}) {
    const std::string common = " --seed 7 --algo " + algo + " --input dnf ";
    const std::string single = dir + "/s_single_" + algo + ".mcf0";
    const std::string a = dir + "/s_a_" + algo + ".mcf0";
    const std::string b = dir + "/s_b_" + algo + ".mcf0";
    const std::string merged = dir + "/s_m_" + algo + ".mcf0";

    const RunOutput build_out =
        RunCli("sketch build" + common + "--out " + single + " " + whole);
    ASSERT_EQ(build_out.exit_code, 0) << build_out.stdout_text;
    EXPECT_NE(build_out.stdout_text.find("\"kind\": \"structured\""),
              std::string::npos)
        << build_out.stdout_text;
    EXPECT_EQ(JsonNumber(build_out.stdout_text, "items"), 2.0);
    ASSERT_EQ(RunCli("sketch build" + common + "--out " + a + " " + shard_a)
                  .exit_code,
              0);
    ASSERT_EQ(RunCli("sketch build" + common + "--out " + b + " " + shard_b)
                  .exit_code,
              0);
    const RunOutput merge_out =
        RunCli("sketch merge --out " + merged + " " + a + " " + b);
    ASSERT_EQ(merge_out.exit_code, 0) << merge_out.stdout_text;
    EXPECT_NE(merge_out.stdout_text.find("\"kind\": \"structured\""),
              std::string::npos)
        << merge_out.stdout_text;

    std::ifstream single_in(single, std::ios::binary);
    std::ifstream merged_in(merged, std::ios::binary);
    const std::string single_bytes(
        (std::istreambuf_iterator<char>(single_in)),
        std::istreambuf_iterator<char>());
    const std::string merged_bytes(
        (std::istreambuf_iterator<char>(merged_in)),
        std::istreambuf_iterator<char>());
    EXPECT_FALSE(single_bytes.empty());
    EXPECT_EQ(merged_bytes, single_bytes) << algo;

    // In-process term sharding (ShardedStructuredEngine) produces those
    // same bytes too: one file, N worker replicas, P producers.
    const std::string sharded = dir + "/s_sharded_" + algo + ".mcf0";
    ASSERT_EQ(RunCli("sketch build" + common + "--shards 2 --producers 2 " +
                     "--out " + sharded + " " + whole)
                  .exit_code,
              0);
    std::ifstream sharded_in(sharded, std::ios::binary);
    const std::string sharded_bytes(
        (std::istreambuf_iterator<char>(sharded_in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(sharded_bytes, single_bytes) << algo;

    const RunOutput query_out = RunCli("sketch query " + merged);
    ASSERT_EQ(query_out.exit_code, 0) << query_out.stdout_text;
    ExpectJsonShape(query_out.stdout_text, "sketch");
    const RunOutput stream_out =
        RunCli("stream --seed 7 --algo " + algo + " " + whole);
    ASSERT_EQ(stream_out.exit_code, 0);
    EXPECT_DOUBLE_EQ(JsonNumber(query_out.stdout_text, "estimate"),
                     JsonNumber(stream_out.stdout_text, "estimate"))
        << algo;
  }
}

TEST(CliTest, SketchBuildRangeInput) {
  // Two overlapping 2-d ranges over 4-bit coordinates: |[0,3]^2| = 16
  // plus |[2,5] x [1,1]| = 4 minus the overlap [2,3] x [1,1] = 2 -> 18
  // distinct points, exact in the sub-threshold regime.
  const std::string path = WriteFixture(
      "ranges.txt",
      "c two overlapping ranges\np range 2 4\n0 3 0 3\n2 5 1 1\n");
  const std::string out = testing::TempDir() + "/ranges.mcf0";
  const RunOutput build =
      RunCli("sketch build --input range --seed 3 --out " + out + " " + path);
  ASSERT_EQ(build.exit_code, 0) << build.stdout_text;
  EXPECT_EQ(JsonNumber(build.stdout_text, "items"), 2.0);
  EXPECT_EQ(JsonNumber(build.stdout_text, "n"), 8.0);
  EXPECT_DOUBLE_EQ(JsonNumber(build.stdout_text, "estimate"), 18.0);
  const RunOutput query = RunCli("sketch query " + out);
  ASSERT_EQ(query.exit_code, 0);
  EXPECT_DOUBLE_EQ(JsonNumber(query.stdout_text, "estimate"), 18.0);
}

TEST(CliTest, SketchMerge32ShardsNamesTheCorruptFileInOnePass) {
  // The single-pass labeled-source contract end to end: 32 shard files,
  // one corrupted mid-payload — the merge fails naming exactly that file
  // (stderr captured via 2>&1), and no pre-open pass re-reads inputs.
  const std::string dir = testing::TempDir();
  std::string inputs;
  for (int s = 0; s < 32; ++s) {
    const std::string stream_path = WriteFixture(
        "named_" + std::to_string(s) + ".txt",
        std::to_string(1000 + s) + " " + std::to_string(2000 + s) + "\n");
    const std::string sketch_path =
        dir + "/named_" + std::to_string(s) + ".mcf0";
    ASSERT_EQ(RunCli("sketch build --seed 4 --out " + sketch_path + " " +
                     stream_path)
                  .exit_code,
              0);
    inputs += " " + sketch_path;
  }
  // Flip one payload byte of shard 13.
  const std::string victim = dir + "/named_13.mcf0";
  {
    std::ifstream in(victim, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    bytes[40] = static_cast<char>(bytes[40] ^ 0x2a);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const RunOutput merge = RunCli("sketch merge --out " + dir +
                                 "/named_merged.mcf0" + inputs + " 2>&1");
  EXPECT_EQ(merge.exit_code, 1);
  EXPECT_NE(merge.stdout_text.find("named_13.mcf0"), std::string::npos)
      << merge.stdout_text;
}

TEST(CliTest, StructuredSketchUsageErrors) {
  const std::string dnf = WriteFixture("su.dnf", kDnfFixture);
  EXPECT_EQ(RunCli("sketch build --input bogus --out x.mcf0 " + dnf +
                   " 2>/dev/null")
                .exit_code,
            2);
  // --producers is capped like --shards: a typo must be a usage error,
  // not a thread-spawn crash.
  EXPECT_EQ(RunCli("sketch build --producers 0 --out x.mcf0 " + dnf +
                   " 2>/dev/null")
                .exit_code,
            2);
  EXPECT_EQ(RunCli("sketch build --input dnf --producers 9999 --out x.mcf0 " +
                   dnf + " 2>/dev/null")
                .exit_code,
            2);
  // Range parse errors are runtime failures, not aborts.
  const std::string bad_range = WriteFixture("bad_range.txt", "0 3 0 3\n");
  EXPECT_EQ(RunCli("sketch build --input range --out x.mcf0 " + bad_range +
                   " 2>/dev/null")
                .exit_code,
            1);
  // A dims claim whose dims * bits product overflows int must hit the
  // universe cap cleanly, not wrap past it into a giant allocation.
  const std::string huge_range = WriteFixture(
      "huge_range.txt", "p range 33554433 64\n0 1 0 1\n");
  EXPECT_EQ(RunCli("sketch build --input range --out x.mcf0 " + huge_range +
                   " 2>/dev/null")
                .exit_code,
            1);
  // Range dimensions wider than 62 bits are refused at the header.
  for (const char* header : {"p range 1 63\n", "p range 1 64\n"}) {
    const std::string wide_range =
        WriteFixture("wide_range_dim.txt", std::string(header) + "0 5\n");
    EXPECT_EQ(RunCli("sketch build --input range --out x.mcf0 " + wide_range +
                     " 2>/dev/null")
                  .exit_code,
              1)
        << header;
  }
  // A range item whose Lemma 4 expansion passes the literal cap (three
  // 62-bit dimensions, 122^3 terms) is refused where it is read.
  const std::string deep_range = WriteFixture(
      "deep_range.txt",
      "p range 3 62\n1 4611686018427387902 1 4611686018427387902 "
      "1 4611686018427387902\n");
  const RunOutput deep = RunCli("sketch build --input range --out x.mcf0 " +
                                deep_range + " 2>&1");
  EXPECT_EQ(deep.exit_code, 1);
  EXPECT_NE(deep.stdout_text.find("literals"), std::string::npos)
      << deep.stdout_text;
  // Affine parse errors are runtime failures, not aborts: missing item
  // header, truncated matrix, wrong row width, mismatched n.
  for (const char* bad : {"1000\n0\n",                    // no `a` header
                          "a 4 2\n1000\n",                // truncated rows
                          "a 4 1\n10\n0\n",               // row width != n
                          "a 4 1\n1020\n0\n",             // non-binary chars
                          "a 4 0\n",                      // rank < 1
                          "a 4 1\n1000\n0\na 5 1\n10000\n0\n"}) {  // n drift
    const std::string path = WriteFixture("bad_affine.txt", bad);
    EXPECT_EQ(RunCli("sketch build --input affine --out x.mcf0 " + path +
                     " 2>/dev/null")
                  .exit_code,
              1)
        << bad;
  }
}

TEST(CliTest, StructuredInputsRejectUniversesAbove4096Bits) {
  // Every structured input kind shares one universe cap. Past it the
  // codec embeds a dense n x 3n hash per row, so an uncapped DNF header
  // alone would turn a one-term file into a sketch of hundreds of
  // megabytes. --delta 0.99 keeps the sketch at one row.
  const std::string affine_item =
      "a 4097 1\n1" + std::string(4096, '0') + "\n1\n";
  const struct {
    const char* kind;
    std::string text;
  } cases[] = {{"dnf", "p dnf 4097 1\n1 0\n"},
               {"range", "p range 65 64\n0 1\n"},
               {"affine", affine_item}};
  for (const auto& [kind, text] : cases) {
    const std::string path =
        WriteFixture(std::string("wide_") + kind + ".txt", text);
    const std::string out = testing::TempDir() + "/wide_" + kind + ".mcf0";
    std::remove(out.c_str());
    const RunOutput build =
        RunCli(std::string("sketch build --delta 0.99 --input ") + kind +
               " --out " + out + " " + path + " 2>&1");
    EXPECT_EQ(build.exit_code, 1) << kind << ": " << build.stdout_text;
    EXPECT_NE(build.stdout_text.find("exceeds 4096"), std::string::npos)
        << kind << ": " << build.stdout_text;
    EXPECT_FALSE(std::ifstream(out).good()) << kind << " wrote " << out;
  }
}

TEST(CliTest, SketchBuildAffineInput) {
  // Theorem 7 end to end: two disjoint affine spaces over {0,1}^4 —
  // {x0 = 0} (8 points) and {x0 = 1, x1 = 1} (4 points) — estimate 12 in
  // the sub-threshold exact regime, surviving a query round trip.
  const std::string path = WriteFixture(
      "affine.txt",
      "c two disjoint affine spaces\na 4 1\n1000\n0\na 4 2\n1000\n0100\n11\n");
  const std::string out = testing::TempDir() + "/affine.mcf0";
  const RunOutput build =
      RunCli("sketch build --input affine --seed 3 --out " + out + " " + path);
  ASSERT_EQ(build.exit_code, 0) << build.stdout_text;
  EXPECT_EQ(JsonNumber(build.stdout_text, "items"), 2.0);
  EXPECT_EQ(JsonNumber(build.stdout_text, "n"), 4.0);
  EXPECT_DOUBLE_EQ(JsonNumber(build.stdout_text, "estimate"), 12.0);
  const RunOutput query = RunCli("sketch query " + out);
  ASSERT_EQ(query.exit_code, 0);
  EXPECT_DOUBLE_EQ(JsonNumber(query.stdout_text, "estimate"), 12.0);

  // The sharded + multi-producer structured build is byte-identical.
  const std::string sharded = testing::TempDir() + "/affine_sharded.mcf0";
  const RunOutput sharded_build =
      RunCli("sketch build --input affine --seed 3 --shards 3 --producers 2 "
             "--out " + sharded + " " + path);
  ASSERT_EQ(sharded_build.exit_code, 0) << sharded_build.stdout_text;
  std::ifstream serial_in(out, std::ios::binary);
  std::ifstream sharded_in(sharded, std::ios::binary);
  const std::string serial_bytes((std::istreambuf_iterator<char>(serial_in)),
                                 std::istreambuf_iterator<char>());
  const std::string sharded_bytes(
      (std::istreambuf_iterator<char>(sharded_in)),
      std::istreambuf_iterator<char>());
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(sharded_bytes, serial_bytes);
}

TEST(CliTest, FormatSniffingIgnoresComments) {
  // A CNF whose comment mentions "p dnf" must still route to the CNF path.
  const std::string path = WriteFixture(
      "commented.cnf",
      "c converted from a p dnf benchmark\np cnf 4 2\n1 2 0\n3 4 0\n");
  const RunOutput out = RunCli("count --seed 3 " + path);
  ASSERT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("\"format\": \"cnf\""), std::string::npos)
      << out.stdout_text;
}

TEST(CliTest, FlagErrorRenderingIsPinnedByteForByte) {
  // The typed flag table (tools/cli_flags.*) must render errors exactly
  // as the historical hand-rolled parser did: scripts grep this output.
  const auto expect_error = [](const std::string& args,
                               const std::string& message) {
    const RunOutput out = RunCli(args + " 2>&1 1>/dev/null");
    EXPECT_EQ(out.exit_code, 2) << args;
    EXPECT_EQ(out.stdout_text, "mcf0: " + message + "\n") << args;
  };
  expect_error("f0 --eps nope -", "--eps needs a number, got 'nope'");
  expect_error("f0 --eps", "--eps needs a value");
  expect_error("f0 --wat 1 -", "unknown option --wat");
  expect_error("f0 --seed -3 -", "--seed needs a non-negative integer, "
                                 "got '-3'");
  expect_error("f0 --n 5000000000 -", "--n is out of range: '5000000000'");
  expect_error("serve --input potato",
               "--input must be raw, dnf, range, or affine, got 'potato'");
  // Aliases report under the canonical flag name.
  expect_error("sketch build -o", "--out needs a value");
}

TEST(CliTest, HelpDocumentsServeAndPush) {
  const RunOutput out = RunCli("help");
  ASSERT_EQ(out.exit_code, 0);
  EXPECT_NE(out.stdout_text.find("serve   run a sketch service"),
            std::string::npos);
  EXPECT_NE(out.stdout_text.find("mcf0 push"), std::string::npos);
  EXPECT_NE(out.stdout_text.find("--credit-window"), std::string::npos);
}

TEST(CliTest, ServeFourConcurrentPushersMatchesSketchBuild) {
  // The PR's acceptance path, end to end through the real binaries: one
  // `mcf0 serve`, four concurrent `mcf0 push` clients, SIGTERM drain —
  // the emitted sketch file must be byte-identical to `sketch build`
  // over the concatenated stream.
  const std::string dir = testing::TempDir();
  std::string full;
  std::vector<std::string> slices;
  for (int c = 0; c < 4; ++c) {
    std::string slice;
    // Overlapping windows: the union is a genuine multiset.
    for (int i = c * 500; i < c * 500 + 800; ++i) {
      slice += std::to_string((i * 2654435761u) % 1000003u) + "\n";
    }
    slices.push_back(WriteFixture("push_" + std::to_string(c) + ".txt",
                                  slice));
    full += slice;
  }
  const std::string full_path = WriteFixture("push_full.txt", full);
  const std::string served = dir + "/served.mcf0";
  const std::string built = dir + "/built.mcf0";

  // Start the server and read its startup JSON for the port and pid.
  const std::string serve_command =
      std::string(MCF0_CLI_PATH) +
      " serve --seed 7 --port 0 --shards 2 --out " + served;
  FILE* serve = popen(serve_command.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  // The startup object is pretty-printed over several lines; read until
  // its closing brace.
  char line[4096];
  std::string startup;
  while (std::fgets(line, sizeof(line), serve) != nullptr) {
    startup += line;
    if (line[0] == '}') break;
  }
  const int port = static_cast<int>(JsonNumber(startup, "port"));
  const int pid = static_cast<int>(JsonNumber(startup, "pid"));
  ASSERT_GT(port, 0) << startup;
  ASSERT_GT(pid, 0) << startup;

  std::vector<std::thread> pushers;
  std::vector<int> exit_codes(4, -1);
  for (int c = 0; c < 4; ++c) {
    pushers.emplace_back([c, port, &slices, &exit_codes] {
      exit_codes[c] = RunCli("push --port " + std::to_string(port) + " " +
                             slices[c])
                          .exit_code;
    });
  }
  for (std::thread& t : pushers) t.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(exit_codes[c], 0) << "pusher " << c;

  // SIGTERM = graceful drain: the server flushes every producer, writes
  // the final sketch, and reports it on stdout.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  std::string drained;
  while (std::fgets(line, sizeof(line), serve) != nullptr) drained += line;
  const int status = pclose(serve);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << drained;
  EXPECT_NE(drained.find("\"event\": \"drained\""), std::string::npos)
      << drained;
  EXPECT_EQ(JsonNumber(drained, "items"), 4 * 800.0) << drained;

  ASSERT_EQ(RunCli("sketch build --seed 7 --out " + built + " " + full_path)
                .exit_code,
            0);
  std::ifstream served_in(served, std::ios::binary);
  std::ifstream built_in(built, std::ios::binary);
  const std::string served_bytes(
      (std::istreambuf_iterator<char>(served_in)),
      std::istreambuf_iterator<char>());
  const std::string built_bytes(
      (std::istreambuf_iterator<char>(built_in)),
      std::istreambuf_iterator<char>());
  EXPECT_FALSE(served_bytes.empty());
  EXPECT_EQ(served_bytes, built_bytes);
}

TEST(CliTest, DrainedSummaryAgreesWithStatsFrame) {
  // Satellite consistency contract: the SIGTERM drained summary sources
  // its totals from the same registry a live kStatsQuery is answered
  // from, so the two can never disagree. One pusher asks for
  // `--query stats` mid-run; the drained JSON must match those numbers
  // (bytes only grow after the snapshot, so they are ordered not equal).
  const std::string dir = testing::TempDir();
  std::string slice;
  for (int i = 0; i < 800; ++i) {
    slice += std::to_string((i * 2654435761u) % 1000003u) + "\n";
  }
  const std::string path = WriteFixture("stats_push.txt", slice);
  const std::string served = dir + "/stats_served.mcf0";

  const std::string serve_command =
      std::string(MCF0_CLI_PATH) +
      " serve --seed 7 --port 0 --shards 2 --out " + served;
  FILE* serve = popen(serve_command.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  char line[4096];
  std::string startup;
  while (std::fgets(line, sizeof(line), serve) != nullptr) {
    startup += line;
    if (line[0] == '}') break;
  }
  const int port = static_cast<int>(JsonNumber(startup, "port"));
  const int pid = static_cast<int>(JsonNumber(startup, "pid"));
  ASSERT_GT(port, 0) << startup;
  ASSERT_GT(pid, 0) << startup;

  // Frames on one session are handled in order, so by the time the
  // stats query is answered every batch this push sent is counted.
  const RunOutput stats_push =
      RunCli("push --port " + std::to_string(port) + " --query stats " + path);
  ASSERT_EQ(stats_push.exit_code, 0) << stats_push.stdout_text;
  const double batches = JsonNumber(stats_push.stdout_text, "batches");
  EXPECT_NE(stats_push.stdout_text.find("\"stats\":"), std::string::npos)
      << stats_push.stdout_text;
  EXPECT_EQ(JsonNumber(stats_push.stdout_text, "mcf0_serve_items_total"),
            800.0)
      << stats_push.stdout_text;
  EXPECT_EQ(JsonNumber(stats_push.stdout_text, "mcf0_serve_batches_total"),
            batches)
      << stats_push.stdout_text;
  const double stats_bytes_in =
      JsonNumber(stats_push.stdout_text, "mcf0_serve_bytes_in_total");
  EXPECT_GT(stats_bytes_in, 0.0);

  // A bare `--query` keeps its historical meaning (estimate) and must
  // not swallow the input path that follows it.
  const RunOutput bare_query = RunCli("push --port " + std::to_string(port) +
                                      " --query " + path);
  ASSERT_EQ(bare_query.exit_code, 0) << bare_query.stdout_text;
  EXPECT_NE(bare_query.stdout_text.find("\"estimate\":"), std::string::npos)
      << bare_query.stdout_text;
  EXPECT_EQ(JsonNumber(bare_query.stdout_text, "server_items"), 1600.0)
      << bare_query.stdout_text;

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  std::string drained;
  while (std::fgets(line, sizeof(line), serve) != nullptr) drained += line;
  const int status = pclose(serve);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << drained;
  EXPECT_NE(drained.find("\"event\": \"drained\""), std::string::npos)
      << drained;
  EXPECT_EQ(JsonNumber(drained, "items"), 1600.0) << drained;
  EXPECT_EQ(JsonNumber(drained, "batches"), 2 * batches) << drained;
  EXPECT_EQ(JsonNumber(drained, "error_frames"), 0.0) << drained;
  EXPECT_NE(drained.find("\"errors\": {}"), std::string::npos) << drained;
  EXPECT_GE(JsonNumber(drained, "bytes_in"), stats_bytes_in) << drained;
}

TEST(CliTest, PushRejectsUnknownQueryKind) {
  // `--query` only understands estimate|stats; anything else is left in
  // argv, so `--query bogus input.txt` becomes two positionals — a
  // usage error, never a silent fallback.
  EXPECT_EQ(RunCli("push --port 1 --query bogus /dev/null 2>/dev/null")
                .exit_code,
            2);
}

TEST(CliTest, PushWithoutServerIsACleanError) {
  EXPECT_EQ(RunCli("push --port 1 /dev/null 2>/dev/null").exit_code, 1);
  // And push without --port is a usage error, not a connection attempt.
  EXPECT_EQ(RunCli("push /dev/null 2>/dev/null").exit_code, 2);
}

}  // namespace
}  // namespace mcf0
