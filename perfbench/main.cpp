// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--tiny 1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// every call into a layer, prints the per-layer metrics and writes the spans
// as chrome-trace JSON to --trace-out. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status is 0 when the run completed (check "correct"), 2 on a usage
// error, 1 when the run itself could not complete.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunOutcome;

void printResult(const RunOutcome& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  tracered::CliArgs args(argc, argv);
  RunConfig config;
  std::string traceOut;
  try {
    tracered::rejectUnknownFlags(
        args, {"workload", "seed", "seconds", "trace", "trace-out", "tiny"});
    config.workload = args.get("workload");
    config.seed = static_cast<std::uint64_t>(args.getInt("seed", perfbench::kDefaultSeed));
    config.seconds = args.getDouble("seconds", 10);
    config.traced = args.getInt("trace", 0) != 0;
    config.tiny = args.getInt("tiny", 0) != 0;
    traceOut = args.get("trace-out", "perfbench-trace-" + config.workload + ".json");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  bool known = false;
  for (const std::string& w : perfbench::workloadNames()) known = known || w == config.workload;
  if (!known || !(config.seconds > 0)) {
    std::fprintf(stderr, "perfbench: need --workload one of:");
    for (const std::string& w : perfbench::workloadNames()) std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, " and --seconds > 0\n");
    return 2;
  }

  perfbench::SpanLog spans;
  const RunOutcome outcome = perfbench::runWorkload(config, config.traced ? &spans : nullptr);
  if (config.traced) {
    if (!spans.writeChromeTrace(traceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", traceOut.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", traceOut.c_str());
  }
  std::printf("%s seed %llu: %llu ops attempted, %llu failed (fail_pct %.3f)\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              100.0 * static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted));
  printResult(outcome);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
