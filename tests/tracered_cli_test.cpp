// Integration tests that shell out to the built `tracered` binary (path
// injected by CMake as TRACERED_CLI_PATH): the generate -> reduce
// --streaming -> info -> eval round trip, byte-identical streaming vs
// offline output, exit codes on malformed input, and stable --help output.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/version.hpp"

#ifndef TRACERED_CLI_PATH
#error "TRACERED_CLI_PATH must point at the built tracered binary"
#endif

namespace tracered {
namespace {

struct CliResult {
  int exitCode = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

CliResult runCli(const std::string& argsLine) {
  const std::string cmd = std::string(TRACERED_CLI_PATH) + " " + argsLine + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult result;
  char buf[4096];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr)
    result.output += buf;
  if (pipe != nullptr) {
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return result;
}

std::string tmpPath(const std::string& name) { return ::testing::TempDir() + name; }

/// The report-table line whose criterion column is `label`; empty if absent.
std::string reportRow(const std::string& output, const std::string& label) {
  std::size_t pos = 0;
  while (pos < output.size()) {
    const std::size_t end = std::min(output.find('\n', pos), output.size());
    const std::string line = output.substr(pos, end - pos);
    if (line.rfind(label + "  ", 0) == 0) return line;
    pos = end + 1;
  }
  return {};
}

TEST(TraceredCli, HelpListsEverySubcommandAndIsStable) {
  const CliResult help = runCli("--help");
  EXPECT_EQ(help.exitCode, 0);
  for (const char* cmd : {"generate", "reduce", "info", "convert", "analyze", "diff", "eval"})
    EXPECT_NE(help.output.find(cmd), std::string::npos) << cmd;
  EXPECT_EQ(runCli("--help").output, help.output);  // deterministic

  const CliResult reduceHelp = runCli("reduce --help");
  EXPECT_EQ(reduceHelp.exitCode, 0);
  EXPECT_NE(reduceHelp.output.find("--streaming"), std::string::npos);
  EXPECT_NE(reduceHelp.output.find("--config"), std::string::npos);

  // Single-dash -h must print the same per-command help, not be taken as an
  // input-file operand.
  const CliResult reduceDashH = runCli("reduce -h");
  EXPECT_EQ(reduceDashH.exitCode, 0);
  EXPECT_EQ(reduceDashH.output, reduceHelp.output);

  // No arguments: usage error, help on stderr.
  EXPECT_EQ(runCli("").exitCode, 2);
}

TEST(TraceredCli, GenerateReduceInfoEvalRoundTrip) {
  const std::string trf = tmpPath("cli_app.trf");
  const std::string offline = tmpPath("cli_off.trr");
  const std::string streamed = tmpPath("cli_str.trr");

  const CliResult gen =
      runCli("generate NtoN_32 --scale 0.1 --seed 7 --out " + trf);
  ASSERT_EQ(gen.exitCode, 0) << gen.output;

  const CliResult off =
      runCli("reduce " + trf + " --config avgWave@0.2 --out " + offline);
  ASSERT_EQ(off.exitCode, 0) << off.output;
  // Boolean flag directly before the positional operand: must not swallow it.
  const CliResult str = runCli("reduce --streaming " + trf +
                               " --config avgWave@0.2 --threads 2 --out " + streamed);
  ASSERT_EQ(str.exitCode, 0) << str.output;
  EXPECT_NE(str.output.find("streaming"), std::string::npos) << str.output;
  // The acceptance criterion: streaming output byte-identical to offline.
  EXPECT_EQ(readFile(offline), readFile(streamed));
  // Both modes take the full-trace size of a TRF1 input from the file.
  for (const char* label : {"full trace bytes", "file %"}) {
    EXPECT_NE(reportRow(off.output, label), "") << label << '\n' << off.output;
    EXPECT_EQ(reportRow(off.output, label), reportRow(str.output, label)) << label;
  }

  const CliResult info = runCli("info " + streamed + " --json");
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("\"format\":\"reduced\""), std::string::npos) << info.output;

  const CliResult ev = runCli("eval " + trf + " " + streamed + " --json");
  EXPECT_EQ(ev.exitCode, 0);
  EXPECT_NE(ev.output.find("\"degreeOfMatching\""), std::string::npos) << ev.output;
  EXPECT_NE(ev.output.find("\"verdict\""), std::string::npos) << ev.output;

  for (const auto& p : {trf, offline, streamed}) std::remove(p.c_str());
}

TEST(TraceredCli, ScenarioGenerateIsDeterministicAndParameterized) {
  const std::string s1 = tmpPath("cli_scen1.trf");
  const std::string s2 = tmpPath("cli_scen2.trf");
  const std::string s3 = tmpPath("cli_scen3.trf");

  // --scenario <name>, the scenario:<name> operand, and the bare <name>
  // operand are the same factory; identical (spec, scale, seed) must write
  // byte-identical TRF1.
  const CliResult a =
      runCli("generate --scenario bursty_phases --scale 0.1 --seed 5 --out " + s1);
  ASSERT_EQ(a.exitCode, 0) << a.output;
  const CliResult b =
      runCli("generate scenario:bursty_phases --scale 0.1 --seed 5 --out " + s2);
  ASSERT_EQ(b.exitCode, 0) << b.output;
  EXPECT_EQ(readFile(s1), readFile(s2));
  const CliResult bare =
      runCli("generate bursty_phases --scale 0.1 --seed 5 --out " + s2);
  ASSERT_EQ(bare.exitCode, 0) << bare.output;
  EXPECT_EQ(readFile(s1), readFile(s2));
  // Whichever spelling, the report names the registered entry.
  EXPECT_NE(bare.output.find("scenario:bursty_phases"), std::string::npos) << bare.output;

  // A --param override changes the trace (and info still understands it).
  const CliResult c = runCli(
      "generate --scenario bursty_phases --scale 0.1 --seed 5 "
      "--param burst_factor=9 --param burst_len=6 --out " + s3);
  ASSERT_EQ(c.exitCode, 0) << c.output;
  EXPECT_NE(readFile(s1), readFile(s3));
  const CliResult info = runCli("info " + s3 + " --json");
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("\"ranks\":8"), std::string::npos) << info.output;

  // --params prints the declared parameter table.
  const CliResult params = runCli("generate --scenario bursty_phases --params");
  EXPECT_EQ(params.exitCode, 0);
  EXPECT_NE(params.output.find("burst_factor"), std::string::npos) << params.output;

  for (const auto& p : {s1, s2, s3}) std::remove(p.c_str());
}

TEST(TraceredCli, ScenarioUsageErrorsGetSuggestionsAndExitTwo) {
  const std::string out = tmpPath("cli_scen_err.trf");
  // Unknown scenario: did-you-mean, before --out is even required.
  const CliResult unknown = runCli("generate --scenario bursty_phase");
  EXPECT_EQ(unknown.exitCode, 2);
  EXPECT_NE(unknown.output.find("bursty_phases"), std::string::npos) << unknown.output;

  // Unknown parameter key: nearest-candidate suggestion.
  const CliResult badKey = runCli(
      "generate --scenario bursty_phases --param burst_fctor=2 --out " + out);
  EXPECT_EQ(badKey.exitCode, 2);
  EXPECT_NE(badKey.output.find("burst_factor"), std::string::npos) << badKey.output;

  // The bare-operand typo must get the same suggestion as the prefixed one.
  const CliResult bareTypo = runCli("generate bursty_phase --out " + out);
  EXPECT_EQ(bareTypo.exitCode, 2);
  EXPECT_NE(bareTypo.output.find("bursty_phases"), std::string::npos) << bareTypo.output;

  // Malformed, out-of-range, and fractional-count values, and --param on a
  // non-scenario.
  EXPECT_EQ(runCli("generate --scenario bursty_phases --param burst_factor=abc --out " +
                   out).exitCode, 2);
  EXPECT_EQ(runCli("generate --scenario stragglers --param ranks=0 --out " + out).exitCode,
            2);
  EXPECT_EQ(runCli("generate --scenario stragglers --param ranks=8.5 --out " + out).exitCode,
            2);
  EXPECT_EQ(runCli("generate late_sender --param x=1 --out " + out).exitCode, 2);
  // Invalid scale is a usage error for every workload kind.
  EXPECT_EQ(runCli("generate late_sender --scale 0 --out " + out).exitCode, 2);
  EXPECT_EQ(runCli("generate --scenario stragglers --scale -1 --out " + out).exitCode, 2);
  // The registry listing covers the scenario: namespace.
  const CliResult list = runCli("generate --list");
  EXPECT_EQ(list.exitCode, 0);
  EXPECT_NE(list.output.find("scenario:sparse_ranks"), std::string::npos) << list.output;
  std::remove(out.c_str());
}

TEST(TraceredCli, ConvertRoundTripsBinaryThroughText) {
  const std::string trf = tmpPath("cli_conv.trf");
  const std::string txt = tmpPath("cli_conv.txt");
  const std::string back = tmpPath("cli_conv2.trf");
  ASSERT_EQ(runCli("generate late_sender --scale 0.1 --out " + trf).exitCode, 0);
  ASSERT_EQ(runCli("convert " + trf + " --format text --out " + txt).exitCode, 0);
  ASSERT_EQ(runCli("convert " + txt + " --format binary --out " + back).exitCode, 0);
  EXPECT_EQ(readFile(trf), readFile(back));
  for (const auto& p : {trf, txt, back}) std::remove(p.c_str());
}

TEST(TraceredCli, ExitCodesDistinguishUsageFromRuntimeErrors) {
  // Unknown subcommand and unknown flag: usage errors (2), with suggestions.
  const CliResult badCmd = runCli("reduec foo.trf");
  EXPECT_EQ(badCmd.exitCode, 2);
  EXPECT_NE(badCmd.output.find("did you mean 'reduce'"), std::string::npos);

  const CliResult analyseTypo = runCli("analyse foo.trf");
  EXPECT_EQ(analyseTypo.exitCode, 2);
  EXPECT_NE(analyseTypo.output.find("did you mean 'analyze'"), std::string::npos)
      << analyseTypo.output;

  const CliResult badFlag = runCli("reduce foo.trf --confg avgWave");
  EXPECT_EQ(badFlag.exitCode, 2);
  EXPECT_NE(badFlag.output.find("did you mean --config"), std::string::npos);

  EXPECT_EQ(runCli("reduce").exitCode, 2);                      // missing operand
  EXPECT_EQ(runCli("generate nope --out x.trf").exitCode, 2);   // unknown workload

  // A typo'd method spec is an unparseable flag value: usage error, not 1.
  const CliResult badConfig = runCli("reduce foo.trf --config bogus");
  EXPECT_EQ(badConfig.exitCode, 2);
  EXPECT_NE(badConfig.output.find("unknown method 'bogus'"), std::string::npos);

  // So is a non-numeric value for a numeric flag — never silently 0.
  const CliResult badThreads = runCli("reduce foo.trf --threads abc");
  EXPECT_EQ(badThreads.exitCode, 2);
  EXPECT_NE(badThreads.output.find("bad --threads value"), std::string::npos);
  // So is a --threads value outside [0, INT_MAX] — never silently truncated
  // or turned into "hardware concurrency". serve checks before it binds.
  const std::string sock = "unix:" + tmpPath("cli_bad_threads.sock");
  for (const std::string& cmd :
       {std::string("reduce foo.trf --threads -3"),
        std::string("reduce foo.trf --threads 4294967296"),
        "serve --listen " + sock + " --threads -1",
        "serve --listen " + sock + " --threads 4294967296"}) {
    const CliResult r = runCli(cmd);
    EXPECT_EQ(r.exitCode, 2) << cmd;
    EXPECT_NE(r.output.find("--threads must be between 0"), std::string::npos)
        << cmd << "\n" << r.output;
  }
  // So are a --window above the 64 MiB cap (it used to die of bad_alloc at
  // the first accept) and a negative --max-traces (it used to wrap to 2^64-1
  // and serve forever), both checked before serve binds.
  for (const auto& [flag, message] :
       {std::pair<std::string, std::string>{"--window 100000000000000",
                                            "--window must be between 4096 and 67108864"},
        {"--max-traces -1", "--max-traces must be at least 0"}}) {
    const CliResult r = runCli("serve --listen " + sock + " " + flag);
    EXPECT_EQ(r.exitCode, 2) << flag;
    EXPECT_NE(r.output.find(message), std::string::npos) << flag << "\n" << r.output;
  }
  // So is --connect-timeout-ms outside [0, INT_MAX], checked before any
  // connect: 4294967296 used to wrap to 0 ms and fail the connect (exit 1).
  for (const char* ms : {"4294967296", "2147483648", "-1"}) {
    const CliResult r = runCli("reduce foo.trf --remote unix:" +
                               tmpPath("cli_absent.sock") + " --connect-timeout-ms " + ms);
    EXPECT_EQ(r.exitCode, 2) << ms << "\n" << r.output;
    EXPECT_NE(r.output.find("--connect-timeout-ms must be between 0"), std::string::npos)
        << ms << "\n" << r.output;
  }

  // A remote-only flag without --remote is a usage error, not ignored: a
  // misplaced remote invocation must not silently reduce in-process.
  // Checked before the input is opened, so foo.trf need not exist.
  const CliResult localTimeout = runCli("reduce foo.trf --connect-timeout-ms 5");
  EXPECT_EQ(localTimeout.exitCode, 2) << localTimeout.output;
  EXPECT_NE(localTimeout.output.find("--connect-timeout-ms requires --remote"),
            std::string::npos)
      << localTimeout.output;

  // A value-taking flag with no value — trailing or followed by another
  // flag — must be rejected rather than silently treated as the boolean
  // "true" (which would write a file named true).
  const CliResult trailingOut = runCli("reduce foo.trf --out");
  EXPECT_EQ(trailingOut.exitCode, 2);
  EXPECT_NE(trailingOut.output.find("requires a value"), std::string::npos);
  const CliResult outThenFlag = runCli("reduce foo.trf --out --streaming");
  EXPECT_EQ(outThenFlag.exitCode, 2);
  EXPECT_NE(outThenFlag.output.find("requires a value"), std::string::npos);

  // Runtime failures (1): missing and malformed input files.
  EXPECT_EQ(runCli("info " + tmpPath("cli_absent.trf")).exitCode, 1);
  const std::string garbage = tmpPath("cli_garbage.trf");
  writeFile(garbage, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(runCli("info " + garbage).exitCode, 1);
  EXPECT_EQ(runCli("reduce " + garbage + " --streaming").exitCode, 1);
  std::remove(garbage.c_str());
}

TEST(TraceredCli, InfoReportsIdleRanks) {
  const std::string txt = tmpPath("cli_idle.txt");
  {
    FILE* f = std::fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# tracered text trace v1\nranks 3\nstring 0 main.1\nrank 1\nB 10 0\nE 20 0\n",
               f);
    std::fclose(f);
  }
  const CliResult info = runCli("info " + txt);
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("idle ranks"), std::string::npos);
  EXPECT_NE(info.output.find("2"), std::string::npos);
  std::remove(txt.c_str());
}

TEST(TraceredCli, GenerateListsWorkloads) {
  const CliResult list = runCli("generate --list");
  EXPECT_EQ(list.exitCode, 0);
  for (const char* w : {"late_sender", "dyn_load_balance", "sweep3d_32p"})
    EXPECT_NE(list.output.find(w), std::string::npos) << w;
}

TEST(TraceredCli, VersionFlagPrintsTheSameLineEverywhere) {
  // One version string for the whole tool — the same line the serve daemon
  // quotes in protocol-version-mismatch errors (util/version.hpp).
  const std::string expected = std::string(util::kVersionLine) + "\n";
  const CliResult top = runCli("--version");
  EXPECT_EQ(top.exitCode, 0);
  EXPECT_EQ(top.output, expected);
  for (const char* sub :
       {"generate", "reduce", "info", "convert", "analyze", "diff", "eval", "serve"}) {
    const CliResult r = runCli(std::string(sub) + " --version");
    EXPECT_EQ(r.exitCode, 0) << sub;
    EXPECT_EQ(r.output, expected) << sub;
  }
}

TEST(TraceredCli, ClosedStdoutIsAWriteErrorNotASignalDeath) {
  // Writing into a closed stdout must surface as exit 1 (SIGPIPE is
  // ignored, write failures are checked), never a signal kill — the shell
  // would report that as 128+SIGPIPE=141.
  {
    const std::string cmd =
        std::string(TRACERED_CLI_PATH) + " --help >&- 2>/dev/null; echo EXIT:$?";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    EXPECT_NE(out.find("EXIT:1"), std::string::npos) << out;
  }
  // And a reader that vanishes mid-write (head closes the pipe) is the same
  // story: the generate writer sees EPIPE as a failed write, exits 1.
  {
    const std::string status = tmpPath("cli_sigpipe_status");
    const std::string cmd = "( " + std::string(TRACERED_CLI_PATH) +
                            " generate late_sender --scale 8 --out /dev/stdout"
                            " 2>/dev/null; echo $? > " + status +
                            " ) | head -c 64 >/dev/null";
    ASSERT_NE(std::system(cmd.c_str()), -1);
    FILE* f = std::fopen(status.c_str(), "r");
    ASSERT_NE(f, nullptr);
    int rc = -1;
    ASSERT_EQ(std::fscanf(f, "%d", &rc), 1);
    std::fclose(f);
    EXPECT_EQ(rc, 1) << "expected a write-error exit, not a SIGPIPE death";
    std::remove(status.c_str());
  }
}

// --threads sizes one pool shared by the reduce and merge stages; the merged
// trace must not depend on it.
TEST(TraceredCli, MergeOutputIsIndependentOfThreads) {
  const std::string trf = tmpPath("cli_merge.trf");
  ASSERT_EQ(runCli("generate scenario:sparse_ranks --scale 0.2 --seed 3 --param ranks=48 "
                   "--out " + trf)
                .exitCode,
            0);
  const auto mergedWith = [&](int threads) {
    const std::string trm = tmpPath("cli_merge_t" + std::to_string(threads) + ".trm");
    const CliResult r = runCli("reduce " + trf +
                               " --config avgWave@0.2 --merge --merge-shard 8 --threads " +
                               std::to_string(threads) + " --merge-out " + trm);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::vector<std::uint8_t> bytes = readFile(trm);
    std::remove(trm.c_str());
    return bytes;
  };
  const std::vector<std::uint8_t> serial = mergedWith(1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {0, 2}) EXPECT_EQ(mergedWith(threads), serial) << "--threads " << threads;
  std::remove(trf.c_str());
}

TEST(TraceredCli, ServeDaemonRoundTripMatchesBatchReduce) {
  const std::string trf = tmpPath("cli_serve.trf");
  const std::string batch = tmpPath("cli_serve_batch.trr");
  const std::string remote = tmpPath("cli_serve_remote.trr");
  const std::string sock = tmpPath("cli_serve.sock");
  std::remove(sock.c_str());

  ASSERT_EQ(runCli("generate late_sender --scale 0.3 --seed 9 --out " + trf).exitCode, 0);
  ASSERT_EQ(runCli("reduce " + trf + " --config avgWave@0.2 --out " + batch).exitCode, 0);

  // One-shot daemon in the background (exits after serving one trace); the
  // client's --connect-timeout-ms retries until the socket is up.
  const std::string serveCmd = std::string(TRACERED_CLI_PATH) + " serve --listen unix:" +
                               sock + " --max-traces 1 >/dev/null 2>&1 &";
  ASSERT_EQ(std::system(serveCmd.c_str()), 0);

  const CliResult rem =
      runCli("reduce " + trf + " --remote unix:" + sock +
             " --config avgWave@0.2 --connect-timeout-ms 10000 --out " + remote);
  ASSERT_EQ(rem.exitCode, 0) << rem.output;
  EXPECT_NE(rem.output.find("mode"), std::string::npos);

  EXPECT_EQ(readFile(batch), readFile(remote))
      << "remote reduction must be byte-identical to the batch path";
  for (const std::string& p : {trf, batch, remote, sock}) std::remove(p.c_str());
}

}  // namespace
}  // namespace tracered
