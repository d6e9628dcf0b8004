// CLI front end: argument handling, command dispatch, error paths. Model
// commands use tiny configs via the fast "range/features/formats" paths
// plus one real accuracy invocation against a cached model.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/cli.hpp"
#include "net/server.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::core {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, EmptyArgsPrintUsage) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run({"explode"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MalformedOptionsFail) {
  EXPECT_EQ(run({"range", "--format"}).code, 2);     // missing value
  EXPECT_EQ(run({"range", "stray"}).code, 2);        // positional arg
  EXPECT_EQ(run({"range", "-f", "fp16"}).code, 2);   // single dash
}

TEST(Cli, RangeCommandPrintsTableOneRow) {
  const auto r = run({"range", "--format", "fp_e4m3"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("abs max: 240"), std::string::npos);
  EXPECT_NE(r.out.find("dB"), std::string::npos);
}

TEST(Cli, RangeRejectsBadFormat) {
  const auto r = run({"range", "--format", "garbage"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad or missing"), std::string::npos);
}

TEST(Cli, FeaturesListsTableTwo) {
  const auto r = run({"features"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Block Floating Point"), std::string::npos);
  EXPECT_NE(r.out.find("[x]"), std::string::npos);
}

TEST(Cli, FormatsPrintsGrammarAndAliases) {
  const auto r = run({"formats"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("posit_<N>_<ES>"), std::string::npos);
  EXPECT_NE(r.out.find("bfloat16"), std::string::npos);
}

TEST(Cli, AccuracyRejectsMissingFormat) {
  const auto r = run({"accuracy", "--model", "mlp"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, CampaignValidatesSiteAndErrorModel) {
  EXPECT_EQ(run({"campaign", "--format", "int8", "--site", "nowhere"}).code,
            2);
  EXPECT_EQ(run({"campaign", "--format", "int8", "--error-model", "zap"})
                .code,
            2);
  EXPECT_EQ(run({"campaign", "--format", "bogus"}).code, 2);
}

TEST(Cli, MetadataCampaignOnValueOnlyFormatIsRefused) {
  // fp, fxp and posit carry no metadata register, so a metadata campaign
  // would select no layer: refused as misuse before any model is built,
  // offline and by submit alike.
  for (const char* spec : {"fp_e5m10", "fxp_1_3_12", "posit_8_1"}) {
    for (const std::vector<std::string>& cmd :
         {std::vector<std::string>{"campaign"},
          std::vector<std::string>{"submit", "--port", "19"}}) {
      std::vector<std::string> args = cmd;
      args.insert(args.end(), {"--format", spec, "--site", "metadata"});
      const auto r = run(args);
      EXPECT_EQ(r.code, 2) << cmd[0] << " " << spec;
      EXPECT_NE(r.err.find(std::string("'") + spec + "'"), std::string::npos)
          << r.err;
      EXPECT_NE(r.err.find("int, bfp or afp"), std::string::npos) << r.err;
    }
  }
}

TEST(Cli, DseRejectsUnknownFamily) {
  const auto r = run({"dse", "--family", "unum", "--model", "mlp",
                      "--epochs", "1", "--cache", "/tmp/ge_cli_cache",
                      "--samples", "16"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown family"), std::string::npos);
}

TEST(Cli, AccuracyEndToEnd) {
  // trains a 1-epoch mlp into a private cache; asserts sane output shape
  const auto r = run({"accuracy", "--model", "mlp", "--format", "int8",
                      "--epochs", "1", "--cache", "/tmp/ge_cli_cache",
                      "--samples", "32"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("baseline:"), std::string::npos);
  EXPECT_NE(r.out.find("accuracy:"), std::string::npos);

  // -1 evaluates the whole test split
  const auto all = run({"accuracy", "--model", "mlp", "--format", "int8",
                        "--epochs", "1", "--cache", "/tmp/ge_cli_cache",
                        "--samples", "-1"});
  EXPECT_EQ(all.code, 0) << all.err;
}

TEST(Cli, CampaignEndToEnd) {
  const auto r = run({"campaign", "--model", "mlp", "--format",
                      "bfp_e5m5_b16", "--site", "metadata", "--injections",
                      "2", "--epochs", "1", "--cache", "/tmp/ge_cli_cache",
                      "--samples", "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("network mean dLoss"), std::string::npos);
}

TEST(Cli, CampaignStuckAtErrorModelEndToEnd) {
  const auto r = run({"campaign", "--model", "mlp", "--format", "int8",
                      "--error-model", "sa1", "--injections", "2",
                      "--epochs", "1", "--cache", "/tmp/ge_cli_cache",
                      "--samples", "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("error-model=sa1"), std::string::npos);
}

TEST(Cli, CampaignPrefixCacheFlagValidatedAndDigestInvariant) {
  // bad values are usage errors
  const auto bad = run({"campaign", "--model", "mlp", "--format", "int8",
                        "--prefix-cache", "maybe", "--epochs", "1",
                        "--cache", "/tmp/ge_cli_cache", "--samples", "8"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--prefix-cache"), std::string::npos);
  EXPECT_EQ(run({"campaign", "--model", "mlp", "--format", "int8",
                 "--sites-per-trial", "0", "--epochs", "1", "--cache",
                 "/tmp/ge_cli_cache", "--samples", "8"})
                .code,
            2);

  // cache on (default) and off print the same campaign digest
  const std::vector<std::string> base = {
      "campaign", "--model", "mlp", "--format", "int8", "--injections", "3",
      "--epochs", "1", "--cache", "/tmp/ge_cli_cache", "--samples", "8"};
  auto digest = [](const std::string& out) {
    const auto pos = out.find("campaign digest:");
    EXPECT_NE(pos, std::string::npos) << out;
    return out.substr(pos, out.find('\n', pos) - pos);
  };
  const auto on = run(base);
  auto off_args = base;
  off_args.insert(off_args.end(), {"--prefix-cache", "off"});
  const auto off = run(off_args);
  EXPECT_EQ(on.code, 0) << on.err;
  EXPECT_EQ(off.code, 0) << off.err;
  EXPECT_EQ(digest(on.out), digest(off.out));

  // multi-point trials run end to end and shift the digest
  auto multi_args = base;
  multi_args.insert(multi_args.end(), {"--sites-per-trial", "2"});
  const auto multi = run(multi_args);
  EXPECT_EQ(multi.code, 0) << multi.err;
  EXPECT_NE(digest(multi.out), digest(on.out));
}

TEST(Cli, BadNumericOptionIsUsageErrorNotCrash) {
  // used to throw std::invalid_argument straight out of std::stoll
  const auto r = run({"campaign", "--format", "int8", "--samples", "abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--samples"), std::string::npos);
  EXPECT_NE(r.err.find("abc"), std::string::npos);

  // trailing junk must not silently truncate either
  EXPECT_EQ(run({"campaign", "--format", "int8", "--injections", "12x"}).code,
            2);
  EXPECT_EQ(run({"dse", "--threshold", "lots"}).code, 2);

  // NaN parses as a number but fails every range comparison: refused as
  // a usage error instead of running an unthinned channel campaign.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"campaign", "--format", "fp_e5m10",
                                 "--inject-scope", "channel", "--ber", "nan"},
        std::vector<std::string>{"dse", "--threshold", "nan"}}) {
    const auto nan = run(args);
    EXPECT_EQ(nan.code, 2) << args[0] << ": " << nan.err;
    EXPECT_NE(nan.err.find("nan"), std::string::npos) << nan.err;
  }

  // --samples outside the synthetic test split [1, 512] is caught before
  // any model is prepared, not deep in reshape/take.
  const std::vector<std::vector<std::string>> out_of_split = {
      {"campaign", "--format", "int8", "--samples", "0"},
      {"campaign", "--format", "int8", "--samples", "-1"},
      {"campaign", "--format", "int8", "--samples", "600"},
      {"profile", "--samples", "0"},
      {"profile", "--samples", "600"},
      {"dse", "--samples", "600"},
      {"train", "--model", "mlp", "--epochs", "1", "--samples", "0"},
      {"train", "--model", "mlp", "--epochs", "1", "--samples", "600"},
      {"accuracy", "--model", "mlp", "--format", "int8", "--samples", "0"},
      {"accuracy", "--model", "mlp", "--format", "int8", "--samples", "600"},
      {"submit", "--port", "1", "--format", "int8", "--samples", "0"},
      {"submit", "--port", "1", "--format", "int8", "--samples", "513"},
  };
  for (const auto& args : out_of_split) {
    const auto bad = run(args);
    EXPECT_EQ(bad.code, 2) << args[0] << " " << args.back() << ": "
                           << bad.err;
    EXPECT_NE(bad.err.find("--samples"), std::string::npos)
        << args[0] << " " << args.back();
  }
}

TEST(Cli, UnknownOptionRejected) {
  const auto r = run({"range", "--format", "fp16", "--frobnicate", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--frobnicate"), std::string::npos);
}

TEST(Cli, BadLogLevelIsUsageError) {
  const auto r = run({"formats", "--log-level", "loud"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--log-level"), std::string::npos);
}

TEST(Cli, UsageListsEveryCommandAndTelemetryFlags) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  for (const char* token : {"accuracy", "campaign", "dse", "range",
                            "features", "formats", "--trace", "--report",
                            "--log-level", "--seed", "--threshold"}) {
    EXPECT_NE(r.err.find(token), std::string::npos) << token;
  }
}

TEST(Cli, ReportAndTraceFilesWritten) {
  const std::string report = "/tmp/ge_cli_report.jsonl";
  const std::string trace = "/tmp/ge_cli_trace.json";
  std::remove(report.c_str());
  std::remove(trace.c_str());
  const auto r = run({"campaign", "--model", "mlp", "--format", "int8",
                      "--injections", "2", "--epochs", "1", "--cache",
                      "/tmp/ge_cli_cache", "--samples", "8", "--report",
                      report, "--trace", trace});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream rf(report);
  ASSERT_TRUE(rf.good());
  std::string all((std::istreambuf_iterator<char>(rf)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"type\":\"run_header\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"campaign_layer\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"campaign_summary\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(all.find("\"schema\":2"), std::string::npos);
  // schema-v2 per-trial stream + heartbeat + histogram summaries
  EXPECT_NE(all.find("\"type\":\"trial\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(all.find("campaign.trial_delta_loss"), std::string::npos);

  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::string tj((std::istreambuf_iterator<char>(tf)),
                 std::istreambuf_iterator<char>());
  EXPECT_NE(tj.find("\"traceEvents\""), std::string::npos);
  // spans from at least three subsystems
  EXPECT_NE(tj.find("\"cat\":\"campaign\""), std::string::npos);
  EXPECT_NE(tj.find("\"cat\":\"emulator\""), std::string::npos);
  EXPECT_NE(tj.find("\"cat\":\"pool\""), std::string::npos);
  std::remove(report.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, ThreadsFlagAcceptedOnAnyCommand) {
  const auto r = run({"range", "--format", "fp16", "--threads", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("abs max"), std::string::npos);
}

TEST(Cli, ThreadsFlagRestoredAfterRun) {
  const int before = parallel::num_threads();
  EXPECT_EQ(run({"range", "--format", "fp16", "--threads", "3"}).code, 0);
  EXPECT_EQ(parallel::num_threads(), before);
}

TEST(Cli, ThreadsFlagRejectsBadValues) {
  for (const char* bad : {"0", "-2", "257", "abc", "2x", ""}) {
    const auto r = run({"range", "--format", "fp16", "--threads", bad});
    EXPECT_EQ(r.code, 2) << "--threads " << bad;
    EXPECT_NE(r.err.find("--threads"), std::string::npos) << bad;
  }
}

TEST(Cli, UsageListsThreadsFlag) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--threads"), std::string::npos);
}

TEST(Cli, ReportPathUnwritableIsUsageError) {
  const auto r = run({"formats", "--report", "/nonexistent-dir/x.jsonl"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--report"), std::string::npos);
}

// --- ge::io persistence commands -------------------------------------------

std::string grab_line(const std::string& text, const std::string& prefix) {
  const size_t at = text.find(prefix);
  if (at == std::string::npos) return "";
  const size_t end = text.find('\n', at);
  return text.substr(at, end - at);
}

TEST(Cli, TrainSaveLoadEvaluatesBitwiseIdentically) {
  const std::string path = "/tmp/ge_cli_model.gec";
  std::remove(path.c_str());
  const auto saved = run({"train", "--model", "mlp", "--epochs", "1",
                          "--cache", "/tmp/ge_cli_cache", "--samples", "32",
                          "--save", path});
  ASSERT_EQ(saved.code, 0) << saved.err;
  const std::string want = grab_line(saved.out, "eval digest:");
  ASSERT_FALSE(want.empty()) << saved.out;

  const auto loaded = run({"train", "--load", path, "--samples", "32"});
  ASSERT_EQ(loaded.code, 0) << loaded.err;
  EXPECT_EQ(grab_line(loaded.out, "eval digest:"), want);
  EXPECT_NE(loaded.out.find("loaded:"), std::string::npos);

  // --model disagreeing with the checkpoint's architecture is diagnosed
  const auto graft = run({"train", "--load", path, "--model", "simple_cnn"});
  EXPECT_EQ(graft.code, 2);
  std::remove(path.c_str());
}

TEST(Cli, TrainLoadMissingFileExitsTwo) {
  const auto r = run({"train", "--load", "/tmp/ge_cli_no_such.gec"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, CampaignShardsMergeToSingleProcessDigest) {
  const std::vector<std::string> base = {
      "campaign",  "--model",  "mlp",          "--format", "int8",
      "--epochs",  "1",        "--cache",      "/tmp/ge_cli_cache",
      "--samples", "8",        "--injections", "4",
      "--seed",    "5"};
  auto single = base;
  const auto want = run(single);
  ASSERT_EQ(want.code, 0) << want.err;
  const std::string digest = grab_line(want.out, "campaign digest:");
  ASSERT_FALSE(digest.empty()) << want.out;

  std::vector<std::string> shard_files;
  for (int i = 0; i < 3; ++i) {
    const std::string file = "/tmp/ge_cli_shard" + std::to_string(i) + ".gec";
    std::remove(file.c_str());
    auto shard = base;
    shard.insert(shard.end(), {"--shards", "3", "--shard-index",
                               std::to_string(i), "--checkpoint", file});
    const auto r = run(shard);
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("campaign progress:"), std::string::npos);
    shard_files.push_back(file);
  }
  const auto merged = run({"merge", "--inputs",
                           shard_files[0] + "," + shard_files[1] + "," +
                               shard_files[2]});
  ASSERT_EQ(merged.code, 0) << merged.err;
  EXPECT_EQ(grab_line(merged.out, "campaign digest:"), digest);

  // A missing shard is a diagnosed failure, not silent wrong statistics.
  const auto partial =
      run({"merge", "--inputs", shard_files[0] + "," + shard_files[1]});
  EXPECT_EQ(partial.code, 2);
  EXPECT_NE(partial.err.find("incomplete"), std::string::npos);
  for (const auto& f : shard_files) std::remove(f.c_str());
}

TEST(Cli, CampaignAbortThenResumeReproducesDigest) {
  const std::string ck = "/tmp/ge_cli_resume.gec";
  std::remove(ck.c_str());
  const std::vector<std::string> base = {
      "campaign",  "--model",  "mlp",          "--format", "int8",
      "--epochs",  "1",        "--cache",      "/tmp/ge_cli_cache",
      "--samples", "8",        "--injections", "4",
      "--seed",    "5"};
  const auto want = run(base);
  ASSERT_EQ(want.code, 0) << want.err;
  const std::string digest = grab_line(want.out, "campaign digest:");

  auto aborted = base;
  aborted.insert(aborted.end(), {"--checkpoint", ck, "--checkpoint-every",
                                 "2", "--abort-after", "5"});
  const auto a = run(aborted);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("campaign progress:"), std::string::npos);

  auto resumed = base;
  resumed.insert(resumed.end(), {"--checkpoint", ck, "--resume", ck});
  const auto r = run(resumed);
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(grab_line(r.out, "campaign digest:"), digest);
  std::remove(ck.c_str());
}

TEST(Cli, CampaignPersistenceFlagHardening) {
  const std::vector<std::string> base = {"campaign", "--format", "int8"};
  auto with = [&](std::vector<std::string> extra) {
    auto args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  // Each of these must be exit 2 with the offending flag named, and must
  // fail fast — before any model training starts.
  {
    const auto r = with({"--checkpoint-every", "0", "--checkpoint", "/tmp/x.gec"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("--checkpoint-every"), std::string::npos);
  }
  {
    const auto r = with({"--checkpoint-every", "2"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("--checkpoint"), std::string::npos);
  }
  {
    const auto r = with({"--shards", "3", "--shard-index", "3",
                         "--checkpoint", "/tmp/x.gec"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("--shard-index"), std::string::npos);
  }
  {
    const auto r = with({"--shards", "0", "--checkpoint", "/tmp/x.gec"});
    EXPECT_EQ(r.code, 2);
  }
  {
    const auto r = with({"--shards", "2", "--shard-index", "1"});
    EXPECT_EQ(r.code, 2);  // sharding without a checkpoint file
    EXPECT_NE(r.err.find("--checkpoint"), std::string::npos);
  }
  {
    const auto r = with({"--abort-after", "3"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("--abort-after"), std::string::npos);
  }
}

TEST(Cli, CampaignResumeMissingOrCorruptFileExitsTwo) {
  const std::vector<std::string> base = {
      "campaign",  "--model", "mlp",     "--format",          "int8",
      "--epochs",  "1",       "--cache", "/tmp/ge_cli_cache", "--samples",
      "8",         "--injections", "2"};
  auto with = [&](std::vector<std::string> extra) {
    auto args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  {
    const auto r = with({"--resume", "/tmp/ge_cli_no_such.gec"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
  }
  {
    // A .gec with a flipped payload byte: CRC rejects it, exit 2.
    const std::string bad = "/tmp/ge_cli_corrupt.gec";
    {
      const auto ok = with({"--checkpoint", bad, "--abort-after", "2",
                            "--checkpoint-every", "1"});
      ASSERT_EQ(ok.code, 0) << ok.err;
      std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(-2, std::ios::end);
      f.put('\x5A');
    }
    const auto r = with({"--resume", bad});
    EXPECT_EQ(r.code, 2);
    std::remove(bad.c_str());
  }
}

TEST(Cli, MergeUsageErrors) {
  EXPECT_EQ(run({"merge"}).code, 2);                      // no --inputs
  EXPECT_EQ(run({"merge", "--inputs", ","}).code, 2);     // empty list
  EXPECT_EQ(run({"merge", "--inputs", "/tmp/ge_cli_no_such.gec"}).code, 2);
}

TEST(Cli, UsageListsPersistenceCommandsAndFlags) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  for (const char* token :
       {"train", "merge", "--save", "--load", "--checkpoint",
        "--checkpoint-every", "--resume", "--shards", "--shard-index",
        "--inputs", "--output"}) {
    EXPECT_NE(r.err.find(token), std::string::npos) << token;
  }
}

// --- campaign analytics: report subcommand, append mode, /metrics ----------

TEST(Cli, ReportOverShardsByteIdenticalToSingleProcess) {
  // The acceptance bar for the trial event stream: `goldeneye report` over
  // three per-shard JSONL files renders byte-for-byte the same tables as
  // over the single-process run's report.
  const std::vector<std::string> base = {
      "campaign",  "--model",  "mlp",          "--format", "int8",
      "--epochs",  "1",        "--cache",      "/tmp/ge_cli_cache",
      "--samples", "8",        "--injections", "4",
      "--seed",    "5"};
  const std::string single = "/tmp/ge_cli_report_single.jsonl";
  std::remove(single.c_str());
  {
    auto args = base;
    args.insert(args.end(), {"--report", single});
    ASSERT_EQ(run(args).code, 0);
  }
  std::vector<std::string> shards;
  for (int i = 0; i < 3; ++i) {
    const std::string jsonl =
        "/tmp/ge_cli_report_shard" + std::to_string(i) + ".jsonl";
    const std::string ck =
        "/tmp/ge_cli_report_shard" + std::to_string(i) + ".gec";
    std::remove(jsonl.c_str());
    std::remove(ck.c_str());
    auto args = base;
    args.insert(args.end(), {"--shards", "3", "--shard-index",
                             std::to_string(i), "--checkpoint", ck,
                             "--report", jsonl});
    ASSERT_EQ(run(args).code, 0);
    shards.push_back(jsonl);
    std::remove(ck.c_str());
  }

  const auto want = run({"report", "--inputs", single});
  ASSERT_EQ(want.code, 0) << want.err;
  EXPECT_NE(want.out.find("layer vulnerability"), std::string::npos);
  EXPECT_NE(want.out.find("SDC heatmap"), std::string::npos);
  const auto got = run({"report", "--inputs",
                        shards[0] + "," + shards[1] + "," + shards[2]});
  ASSERT_EQ(got.code, 0) << got.err;
  EXPECT_EQ(got.out, want.out);  // byte-identical, not just equivalent

  std::remove(single.c_str());
  for (const auto& f : shards) std::remove(f.c_str());
}

TEST(Cli, ReportAppendsOnResumeInsteadOfClobbering) {
  // --resume with the same --report path must append, so the merged file
  // carries both runs' headers (the second marked resumed) and the full
  // trial stream that `report` needs.
  const std::string ck = "/tmp/ge_cli_append.gec";
  const std::string jsonl = "/tmp/ge_cli_append.jsonl";
  std::remove(ck.c_str());
  std::remove(jsonl.c_str());
  const std::vector<std::string> base = {
      "campaign",  "--model",  "mlp",          "--format", "int8",
      "--epochs",  "1",        "--cache",      "/tmp/ge_cli_cache",
      "--samples", "8",        "--injections", "4",
      "--seed",    "5",        "--report",     jsonl};
  {
    auto args = base;
    args.insert(args.end(), {"--checkpoint", ck, "--checkpoint-every", "2",
                             "--abort-after", "5"});
    ASSERT_EQ(run(args).code, 0);
  }
  {
    auto args = base;
    args.insert(args.end(), {"--checkpoint", ck, "--resume", ck});
    ASSERT_EQ(run(args).code, 0);
  }
  std::ifstream f(jsonl);
  ASSERT_TRUE(f.good());
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  size_t headers = 0;
  for (size_t at = all.find("\"type\":\"run_header\"");
       at != std::string::npos;
       at = all.find("\"type\":\"run_header\"", at + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 2u);  // both runs present: the resume appended
  EXPECT_NE(all.find("\"resumed\":true"), std::string::npos);

  const auto rep = run({"report", "--inputs", jsonl});
  EXPECT_EQ(rep.code, 0) << rep.err;
  EXPECT_NE(rep.out.find("layer vulnerability"), std::string::npos);
  std::remove(ck.c_str());
  std::remove(jsonl.c_str());
}

TEST(Cli, ReportUsageAndInputErrors) {
  EXPECT_EQ(run({"report"}).code, 2);                 // no --inputs
  EXPECT_EQ(run({"report", "--inputs", ","}).code, 2);
  EXPECT_EQ(run({"report", "--inputs", "/tmp/ge_cli_no_such.jsonl"}).code, 2);
  // A readable file with no trial records is a legitimate empty campaign:
  // exit 0 with an explicit note, so scripted pipelines don't fail on
  // configurations that select no fault sites.
  const std::string empty = "/tmp/ge_cli_report_empty.jsonl";
  {
    std::ofstream f(empty);
    f << "{\"schema\":2,\"type\":\"run_header\"}\n";
  }
  const auto r = run({"report", "--inputs", empty});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("no trial records"), std::string::npos);
  // A zero-byte file behaves the same (zero lines, zero trials).
  {
    std::ofstream f(empty, std::ios::trunc);
  }
  const auto z = run({"report", "--inputs", empty});
  EXPECT_EQ(z.code, 0) << z.err;
  EXPECT_NE(z.out.find("no trial records"), std::string::npos);
  std::remove(empty.c_str());
}

TEST(Cli, MetricsPortValidatedAndServes) {
  for (const char* bad : {"-2", "65536", "abc", "8x", ""}) {
    const auto r = run({"formats", "--metrics-port", bad});
    EXPECT_EQ(r.code, 2) << "--metrics-port " << bad;
    EXPECT_NE(r.err.find("--metrics-port"), std::string::npos) << bad;
  }
  // Port 0 binds an ephemeral port and announces it on stderr.
  const auto r = run({"formats", "--metrics-port", "0"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("http://127.0.0.1:"), std::string::npos);
  EXPECT_NE(r.err.find("/metrics"), std::string::npos);
}

TEST(Cli, UsageListsReportCommandAndMetricsPort) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("report"), std::string::npos);
  EXPECT_NE(r.err.find("--metrics-port"), std::string::npos);
}

TEST(Cli, ProfileEndToEndAttributesWallTime) {
  const auto r = run({"profile", "--model", "mlp", "--format", "int8",
                      "--iterations", "2", "--samples", "8", "--epochs", "1",
                      "--cache", "/tmp/ge_cli_cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("span attribution"), std::string::npos);
  EXPECT_NE(r.out.find("hardware counters"), std::string::npos);
  EXPECT_NE(r.out.find("memory watermarks"), std::string::npos);
  // the acceptance bar: root spans account for >= 95% of the wall time
  const size_t at = r.out.find("% of wall)");
  ASSERT_NE(at, std::string::npos) << r.out;
  const size_t open = r.out.rfind('(', at);
  ASSERT_NE(open, std::string::npos);
  const double pct = std::strtod(r.out.c_str() + open + 1, nullptr);
  EXPECT_GE(pct, 95.0) << r.out;
  // the table carries the root span and per-layer emulator rows keyed
  // by the profiled format
  EXPECT_NE(r.out.find("forward"), std::string::npos);
  EXPECT_NE(r.out.find("int8"), std::string::npos);
}

TEST(Cli, ProfileFlameExportWritesCollapsedStacks) {
  const std::string flame = "/tmp/ge_cli_profile.flame";
  std::remove(flame.c_str());
  const auto r = run({"profile", "--model", "mlp", "--format", "native",
                      "--iterations", "1", "--samples", "8", "--epochs", "1",
                      "--cache", "/tmp/ge_cli_cache", "--flame", flame});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("flamegraph stacks"), std::string::npos);
  std::ifstream f(flame);
  ASSERT_TRUE(f.good());
  std::string stacks((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
  EXPECT_FALSE(stacks.empty());
  EXPECT_NE(stacks.find("forward"), std::string::npos) << stacks;
  std::remove(flame.c_str());
}

TEST(Cli, ProfileValidatesOptions) {
  EXPECT_EQ(run({"profile", "--format", "garbage"}).code, 2);
  EXPECT_EQ(run({"profile", "--iterations", "0"}).code, 2);
  EXPECT_EQ(run({"profile", "--iterations", "abc"}).code, 2);
  const auto r = run({"profile", "--perf", "sometimes"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--perf"), std::string::npos);
}

TEST(Cli, UsageListsProfileCommand) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("profile"), std::string::npos);
  EXPECT_NE(r.err.find("--flame"), std::string::npos);
}

TEST(Cli, ReportStreamCarriesSpanStatsAndMemoryHeartbeat) {
  // --report runs enable profiling, so the closing metrics snapshot must
  // include span_stat rows, and heartbeats carry the memory watermarks.
  const std::string report = "/tmp/ge_cli_report_spans.jsonl";
  std::remove(report.c_str());
  const auto r = run({"campaign", "--model", "mlp", "--format", "int8",
                      "--injections", "2", "--epochs", "1", "--cache",
                      "/tmp/ge_cli_cache", "--samples", "8", "--report",
                      report});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream rf(report);
  ASSERT_TRUE(rf.good());
  std::string all((std::istreambuf_iterator<char>(rf)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"type\":\"span_stat\""), std::string::npos);
  EXPECT_NE(all.find("\"span\":\"trial\""), std::string::npos);
  EXPECT_NE(all.find("\"self_ns\":"), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(all.find("\"rss_bytes\":"), std::string::npos);
  EXPECT_NE(all.find("\"arena_bytes\":"), std::string::npos);
  std::remove(report.c_str());
}

// --- service commands (serve / submit / worker) ----------------------------
// The loopback protocol itself is exercised in tests/test_net.cpp; here we
// pin the CLI contract: table-driven usage, validated numeric args, exit 2
// on misuse, exit 2 on an unreachable server.

TEST(Cli, UsageListsServiceCommands) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("serve"), std::string::npos);
  EXPECT_NE(r.err.find("submit"), std::string::npos);
  EXPECT_NE(r.err.find("worker"), std::string::npos);
  EXPECT_NE(r.err.find("--drain-timeout"), std::string::npos);
  EXPECT_NE(r.err.find("--drop-leases"), std::string::npos);
}

TEST(Cli, ServeValidatesNumericOptions) {
  EXPECT_EQ(run({"serve", "--port", "65536"}).code, 2);
  EXPECT_EQ(run({"serve", "--port", "-1"}).code, 2);
  EXPECT_EQ(run({"serve", "--port", "abc"}).code, 2);
  EXPECT_EQ(run({"serve", "--lease-timeout", "0"}).code, 2);
  EXPECT_EQ(run({"serve", "--drain-timeout", "-5"}).code, 2);
  EXPECT_EQ(run({"serve", "--chunk", "-1"}).code, 2);
  EXPECT_EQ(run({"serve", "--max-campaigns", "-1"}).code, 2);
  EXPECT_EQ(run({"serve", "--bogus", "1"}).code, 2);
}

TEST(Cli, SubmitRequiresValidPortAndSpec) {
  // Clients must name their server: no --port is misuse, not a default.
  const auto missing = run({"submit", "--format", "int8"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("--port"), std::string::npos);
  EXPECT_EQ(run({"submit", "--port", "0", "--format", "int8"}).code, 2);
  EXPECT_EQ(run({"submit", "--port", "19", "--format", "bogus"}).code, 2);
  EXPECT_EQ(run({"submit", "--port", "19", "--format", "int8", "--site",
                 "nowhere"})
                .code,
            2);
}

TEST(Cli, WorkerValidatesNumericOptions) {
  EXPECT_EQ(run({"worker"}).code, 2);  // missing --port
  EXPECT_EQ(run({"worker", "--port", "19", "--max-leases", "-1"}).code, 2);
  EXPECT_EQ(run({"worker", "--port", "19", "--poll", "0"}).code, 2);
  EXPECT_EQ(run({"worker", "--port", "19", "--drop-leases", "-2"}).code, 2);
}

TEST(Cli, CampaignAndSubmitRefuseABadSpecAlike) {
  // One flag reader and one spec check: each bad flag set is a usage error
  // with the same reason from both commands, and submit refuses it before
  // it connects (port 1 would answer with a connection error). campaign
  // gets a cache of its own: a spec that slipped through would train and
  // cache a model there.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--injections", "0"}, "--injections"},
          {{"--injections", "-1"}, "--injections"},
          {{"--epochs", "0"}, "--epochs"},
          {{"--model", "nope"}, "--model"},
          {{"--ber", "0.5"}, "--ber"},
          {{"--burst-len", "3"}, "--burst-len"},
          {{"--burst-len", "0", "--error-model", "burst"}, "--burst-len"},
          {{"--burst-len", "4294967297", "--error-model", "burst"},
           "--burst-len"},
          {{"--sites-per-trial", "0"}, "--sites-per-trial"},
          {{"--sites-per-trial", "4294967297"}, "--sites-per-trial"},
          {{"--error-model", "ber", "--ber", "1e-3", "--site", "weight"},
           "--site value"},
      };
  // The reason follows the command name ("campaign: ...", "submit: ...").
  const auto reason = [](const std::string& err) {
    const size_t colon = err.find(':');
    return colon == std::string::npos ? err : err.substr(colon);
  };
  for (const auto& [flags, fragment] : cases) {
    std::vector<std::string> campaign = {"campaign", "--format", "fp_e5m10",
                                         "--cache", "/tmp/ge_cli_refused"};
    std::vector<std::string> submit = {"submit", "--port", "1", "--format",
                                       "fp_e5m10"};
    campaign.insert(campaign.end(), flags.begin(), flags.end());
    submit.insert(submit.end(), flags.begin(), flags.end());
    const auto offline = run(campaign);
    const auto served = run(submit);
    EXPECT_EQ(offline.code, 2) << fragment << ": " << offline.err;
    EXPECT_EQ(served.code, 2) << fragment << ": " << served.err;
    EXPECT_NE(offline.err.find(fragment), std::string::npos) << offline.err;
    EXPECT_EQ(reason(offline.err), reason(served.err));
  }
}

TEST(Cli, EpochsBelowOneIsRefusedBeforeAnyModelIsBuilt) {
  // The weight cache key holds no epoch count: a model cached untrained
  // would be read by every later command. Each model command refuses
  // --epochs 0 before it builds a model, so a fresh cache stays empty.
  const std::string cache = "/tmp/ge_cli_epochs0_cache";
  std::filesystem::remove_all(cache);
  const std::vector<std::vector<std::string>> commands = {
      {"campaign", "--format", "fp_e5m10"},
      {"accuracy", "--format", "int8"},
      {"dse"},
      {"profile"},
      {"train"},
  };
  for (std::vector<std::string> args : commands) {
    args.insert(args.end(), {"--model", "mlp", "--epochs", "0", "--cache",
                             cache, "--samples", "8"});
    const auto r = run(args);
    EXPECT_EQ(r.code, 2) << args[0] << ": " << r.err;
    EXPECT_NE(r.err.find("--epochs must be >= 1"), std::string::npos)
        << args[0] << ": " << r.err;
    EXPECT_TRUE(!std::filesystem::exists(cache) ||
                std::filesystem::is_empty(cache))
        << args[0];
  }
}

TEST(Cli, SubmitPrintsTheOfflineCampaignStdout) {
  // Both commands build through one prepare_campaign and print through one
  // render_campaign_summary, so a served campaign's stdout is the offline
  // stdout byte for byte, CLI words and 5-decimal dLoss included.
  struct ThreadGuard {
    int saved = parallel::num_threads();
    ~ThreadGuard() { parallel::set_num_threads(saved); }
  } guard;
  const std::vector<std::vector<std::string>> specs = {
      {"--format", "fp_e5m10"},
      {"--format", "int8", "--site", "weight", "--error-model", "sa1"},
      {"--format", "fp_e5m10", "--inject-scope", "row"},
  };
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const auto& flags : specs) {
      std::vector<std::string> spec = {"--model", "mlp", "--epochs", "1",
                                       "--samples", "8", "--injections", "3"};
      spec.insert(spec.end(), flags.begin(), flags.end());
      std::vector<std::string> campaign = {"campaign", "--cache",
                                           "/tmp/ge_cli_cache"};
      campaign.insert(campaign.end(), spec.begin(), spec.end());
      const auto offline = run(campaign);
      ASSERT_EQ(offline.code, 0) << offline.err;

      net::ServeOptions sopts;
      sopts.cache_dir = "/tmp/ge_cli_cache";
      net::Server server(sopts, nullptr);
      ASSERT_TRUE(server.ok()) << server.last_error();
      std::thread serve([&] { server.run(); });
      std::vector<std::string> submit = {"submit", "--port",
                                         std::to_string(server.port())};
      submit.insert(submit.end(), spec.begin(), spec.end());
      const auto served = run(submit);
      server.request_stop();
      serve.join();
      EXPECT_EQ(served.code, 0) << served.err;
      EXPECT_EQ(served.out, offline.out) << "threads " << threads;
    }
  }
}

TEST(Cli, SubmitAgainstDeadServerExitsTwo) {
  // Port 1 on loopback: connection refused -> NetError -> exit 2, the
  // same class as a missing .gec file (diagnosed environment error).
  const auto r = run({"submit", "--port", "1", "--format", "int8"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("submit:"), std::string::npos);
}

}  // namespace
}  // namespace ge::core
