// The eight tracered subcommands plus the small helpers they share.
//
// Each commands_*.cpp defines one CliCommand factory: flag metadata (which
// doubles as the known-flag set for did-you-mean typo reports) plus the
// handler. tracered_main.cpp registers them with a CliApp. Handlers signal
// bad invocations with UsageError (exit 2) and let file/format/runtime
// errors propagate as ordinary exceptions (exit 1); docs/CLI.md is the
// man-page-style reference for all of them.
#pragma once

#include <cstddef>
#include <string>

#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "trace/trace_file.hpp"
#include "util/cli.hpp"

namespace tracered::tools {

CliCommand makeGenerateCommand();
CliCommand makeReduceCommand();
CliCommand makeInfoCommand();
CliCommand makeConvertCommand();
CliCommand makeAnalyzeCommand();
CliCommand makeDiffCommand();
CliCommand makeEvalCommand();
CliCommand makeServeCommand();

/// Any on-disk trace, brought to its segmented view: full traces (TRF1 /
/// text) are segmented directly, reduced (TRR1) and cross-rank merged
/// (TRM1) files are reconstructed first (Sec. 4.3.3). One loader shared by
/// analyze/diff/eval, so every analysis entry point reads every format.
struct LoadedSegments {
  TraceFileFormat format = TraceFileFormat::kFullBinary;
  StringTable names;        ///< The file's interned name table.
  SegmentedTrace segmented;
  std::size_t canonicalBytes = 0;  ///< Serialized binary size of the input.
};

/// Reads `path` (format auto-detected) into its segmented view.
LoadedSegments loadSegments(const std::string& path);

/// Positional argument `index`, or UsageError naming the missing operand.
std::string requirePositional(const CliArgs& args, std::size_t index, const char* what);

/// The --out flag's value, or UsageError.
std::string requireOut(const CliArgs& args);

/// Parses a --format value: "binary" -> kFullBinary, "text" -> kText;
/// UsageError otherwise.
TraceFileFormat parseFormatFlag(const std::string& value);

/// On-disk size of `path` in bytes; throws std::runtime_error if absent.
std::size_t fileSizeBytes(const std::string& path);

/// Escapes `s` for inclusion in a JSON string literal.
std::string jsonEscape(const std::string& s);

}  // namespace tracered::tools
