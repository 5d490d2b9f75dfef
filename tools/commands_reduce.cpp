// tracered reduce — reduce a trace file with any of the nine methods,
// offline (whole trace in memory), --streaming (chunked reader feeding a
// ReductionSession record by record, so the trace never has to fit in
// memory), or --remote (stream the file's bytes to a `tracered serve`
// daemon and receive the reduced trace back). All modes produce
// byte-identical output files (tested).
#include <chrono>
#include <cstdio>
#include <optional>

#include "commands.hpp"

#include "core/reduction_report.hpp"
#include "core/reduction_session.hpp"
#include "serve/client.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace tracered::tools {

namespace {

/// Per-rank completion printer for --progress (stderr, so stdout stays
/// parseable). Strides so 1024-rank sweeps do not spam.
core::ProgressFn progressPrinter() {
  return [](std::size_t done, std::size_t total) {
    const std::size_t stride = total > 64 ? total / 16 : 8;
    if (done == total || done % stride == 0)
      std::fprintf(stderr, "  ... %zu/%zu ranks reduced\n", done, total);
  };
}

/// STATS keys the batch path only prints under --stats; the remote path
/// filters the server's rows by the same set so both modes show the same
/// table for the same flags.
bool isStatsRow(const std::string& key) {
  return key == "reduce wall ms" || key == "reps scanned" ||
         key == "reps visited (exact)" || key == "index pruned" ||
         key == "index prune rate" || key == "pivot distance evals";
}

int runRemoteReduce(const CliArgs& args, const std::string& input,
                    const core::ReductionConfig& config) {
  for (const char* flag : {"streaming", "threads", "progress"})
    if (args.has(flag))
      throw UsageError("--" + std::string(flag) +
                       " does not apply with --remote (the daemon owns the "
                       "streaming and the thread pool)");
  for (const char* flag : {"merge", "merge-config", "merge-shard", "merge-out"})
    if (args.has(flag))
      throw UsageError("--" + std::string(flag) +
                       " does not apply with --remote: the serve protocol has no "
                       "merged-trace frame (docs/SERVE.md), so the merge stage runs "
                       "only where the per-rank reduction lives. Reduce with --merge "
                       "locally instead.");
  const std::string addr = args.get("remote");
  const int retryMs = static_cast<int>(args.getInt("connect-timeout-ms", 5000));
  const std::vector<std::uint8_t> bytes = readFile(input);

  const serve::RemoteReduceResult rr =
      serve::reduceRemote(addr, config.toString(), bytes.data(), bytes.size(), retryMs);

  const bool stats = args.getBool("stats");
  TextTable t;
  t.header({"criterion", "value"});
  t.row({"mode", "remote"});
  t.row({"server", addr});
  t.row({"input", input + " (" + fmtBytes(bytes.size()) + " streamed)"});
  for (const auto& [key, value] : rr.statsRows)
    if (stats || !isStatsRow(key)) t.row({key, value});
  std::printf("%s", t.str().c_str());

  const std::string out = args.get("out");
  if (!out.empty()) {
    // The daemon's bytes verbatim — `cmp` against the batch path's file is
    // the cookbook's acceptance check.
    writeFile(out, rr.trrBytes);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int runReduce(const CliArgs& args) {
  const std::string input = requirePositional(args, 0, "<input trace file>");
  core::ReductionConfig config;
  try {
    config = core::ReductionConfig::fromName(args.get("config", "relDiff"));
  } catch (const std::invalid_argument& e) {
    // A typo'd method spec is a usage error (exit 2 + help), not a runtime
    // failure, like every other unparseable flag value — checked before
    // connecting anywhere, so --remote with a bad spec never dials out.
    throw UsageError(e.what());
  }
  if (args.has("remote")) return runRemoteReduce(args, input, config);

  // One pool for both stages; it starts lazily, so --threads 1 never spawns.
  util::PooledExecutor pool(threadsFlag(args, 1));
  config = config.withExecutor(pool);
  const bool streaming = args.getBool("streaming");
  const bool progress = args.getBool("progress");
  const bool stats = args.getBool("stats");
  const std::string out = args.get("out");

  const bool merge = args.getBool("merge");
  for (const char* flag : {"merge-config", "merge-shard", "merge-out"})
    if (!merge && args.has(flag))
      throw UsageError("--" + std::string(flag) + " requires --merge");
  core::MergeOptions mergeOptions;
  if (merge) {
    try {
      mergeOptions.config = args.has("merge-config")
                                ? core::ReductionConfig::fromName(args.get("merge-config"))
                                      .withExecutor(pool)
                                : config;
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    const long long shard = args.getInt("merge-shard", 64);
    if (shard < 1) throw UsageError("--merge-shard must be >= 1");
    mergeOptions.shardRanks = static_cast<std::size_t>(shard);
  }

  core::ReductionResult result;
  std::optional<core::MergeResult> mergeResult;
  std::size_t records = 0;
  std::size_t fullBytes = 0;  // serialized TRF1 bytes; 0 = unknown
  TraceFileReader reader(input);

  const auto reduceStart = std::chrono::steady_clock::now();
  if (streaming) {
    core::ReductionSession session(reader.names(), config);
    if (merge) session.setMergeOptions(mergeOptions);
    if (progress) session.onProgress(progressPrinter());
    reader.streamRecords(
        [&](Rank rank, const RawRecord& rec) {
          session.feed(rank, rec);
          if (progress && session.recordsFed() % 500000 == 0)
            std::fprintf(stderr, "  ... fed %zu records\n", session.recordsFed());
        },
        [&](Rank rank) { session.ensureRank(rank); });
    records = session.recordsFed();
    result = session.finish();
    mergeResult = session.takeMergeResult();
    // A binary input file IS the serialized full trace; for text input the
    // binary size would require materializing the trace, which streaming
    // mode exists to avoid.
    if (reader.format() == TraceFileFormat::kFullBinary) fullBytes = fileSizeBytes(input);
  } else {
    const Trace trace = reader.readAll();
    records = trace.totalRecords();
    core::ReductionSession session(trace.names(), config);
    if (merge) session.setMergeOptions(mergeOptions);
    if (progress) session.onProgress(progressPrinter());
    result = session.reduce(segmentTrace(trace));
    mergeResult = session.takeMergeResult();
    fullBytes = fullTraceSize(trace);
  }
  const double reduceMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - reduceStart)
                              .count();

  // The shared report rows (core/reduction_report) with the mode/input rows
  // only this front end knows spliced in after "config" — the serve daemon
  // emits the same shared rows in its STATS frame, so the two tables cannot
  // drift.
  core::ReportRows rows =
      core::reductionReportRows(config, result, records, fullBytes);
  rows.insert(rows.begin() + 1, {{"mode", streaming ? "streaming" : "offline"},
                                 {"input", input + " (" + formatName(reader.format()) + ")"}});
  if (stats) {
    rows.emplace_back("reduce wall ms", fmtF(reduceMs, 1));
    const core::ReportRows counterRows = core::matchCounterRows(result.counters);
    rows.insert(rows.end(), counterRows.begin(), counterRows.end());
  }
  if (mergeResult) {
    const core::ReportRows mergeRows = core::mergeReportRows(mergeOptions, *mergeResult);
    rows.insert(rows.end(), mergeRows.begin(), mergeRows.end());
    if (stats) {
      const core::ReportRows mergeCounters =
          core::matchCounterRows(mergeResult->stats.counters, "merge ");
      rows.insert(rows.end(), mergeCounters.begin(), mergeCounters.end());
    }
  }
  TextTable t;
  t.header({"criterion", "value"});
  for (const auto& [key, value] : rows) t.row({key, value});
  std::printf("%s", t.str().c_str());

  if (!out.empty()) {
    writeFile(out, serializeReducedTrace(result.reduced));
    std::printf("wrote %s\n", out.c_str());
  }
  const std::string mergeOut = args.get("merge-out");
  if (!mergeOut.empty() && mergeResult) {
    writeFile(mergeOut, serializeMergedTrace(mergeResult->merged));
    std::printf("wrote %s\n", mergeOut.c_str());
  }
  return 0;
}

}  // namespace

CliCommand makeReduceCommand() {
  CliCommand c;
  c.name = "reduce";
  c.usage = "reduce <input> [--config <method[@threshold]>] [flags]";
  c.summary = "reduce a trace file (nine methods; offline, --streaming, or --remote)";
  c.flags = {
      {"config", "<m[@t]>",
       "similarity method and threshold, e.g. avgWave@0.2 (default relDiff at its "
       "paper threshold)"},
      {"out", "<file>", "write the reduced trace (TRR1) here"},
      {"streaming", "", "feed the file through the chunked reader record by record"},
      {"remote", "<addr>",
       "stream the file to a `tracered serve` daemon (unix:<path> or "
       "tcp:<host>:<port>) instead of reducing in-process"},
      {"connect-timeout-ms", "<ms>",
       "with --remote: keep retrying the connect this long, for daemons still "
       "starting up (default 5000)"},
      {"threads", "<n>", "reduction worker threads; 0 = hardware concurrency (default 1)"},
      {"merge", "",
       "fold the per-rank reduction into one application-wide trace (hierarchical "
       "cross-rank merge; bit-identical to the serial pass for any --threads / "
       "--merge-shard)"},
      {"merge-config", "<m[@t]>",
       "similarity method and threshold for the merge stage (default: same as "
       "--config)"},
      {"merge-shard", "<n>",
       "ranks buffered per merge tree shard (default 64; affects memory and wall "
       "clock, never the output)"},
      {"merge-out", "<file>", "write the merged trace (TRM1) here"},
      {"progress", "", "report per-rank progress on stderr"},
      {"stats", "",
       "append matching-cost rows (wall ms, reps scanned/visited, index prune "
       "rate)"},
  };
  c.run = runReduce;
  return c;
}

}  // namespace tracered::tools
