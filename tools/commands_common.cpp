#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>

#include "commands.hpp"

#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"

namespace tracered::tools {

std::string requirePositional(const CliArgs& args, std::size_t index, const char* what) {
  if (index >= args.positional().size())
    throw UsageError(std::string("missing operand: ") + what);
  return args.positional()[index];
}

std::string requireOut(const CliArgs& args) {
  const std::string out = args.get("out");
  if (out.empty()) throw UsageError("missing required flag --out <file>");
  return out;
}

int threadsFlag(const CliArgs& args, int fallback) {
  const std::int64_t threads = args.getInt("threads", fallback);
  if (threads < 0 || threads > std::numeric_limits<int>::max())
    throw UsageError("--threads must be between 0 (hardware concurrency) and " +
                     std::to_string(std::numeric_limits<int>::max()) + ", got " +
                     std::to_string(threads));
  return static_cast<int>(threads);
}

TraceFileFormat parseFormatFlag(const std::string& value) {
  if (value == "binary") return TraceFileFormat::kFullBinary;
  if (value == "text") return TraceFileFormat::kText;
  throw UsageError("bad --format '" + value + "' (expected 'binary' or 'text')");
}

LoadedSegments loadSegments(const std::string& path) {
  LoadedSegments out;
  out.format = detectTraceFile(path);
  switch (out.format) {
    case TraceFileFormat::kReducedBinary: {
      const ReducedTrace reduced = deserializeReducedTrace(readFile(path));
      out.names = reduced.names;
      out.canonicalBytes = reducedTraceSize(reduced);
      out.segmented = core::reconstruct(reduced);
      break;
    }
    case TraceFileFormat::kMergedBinary: {
      const MergedReducedTrace merged = deserializeMergedTrace(readFile(path));
      out.names = merged.names;
      out.canonicalBytes = mergedTraceSize(merged);
      out.segmented = core::reconstructMerged(merged);
      break;
    }
    case TraceFileFormat::kFullBinary:
    case TraceFileFormat::kText: {
      TraceFileReader reader(path);
      const Trace trace = reader.readAll();
      out.names = trace.names();
      out.canonicalBytes = fullTraceSize(trace);
      out.segmented = segmentTrace(trace);
      break;
    }
  }
  return out;
}

std::size_t fileSizeBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot stat " + path + ": " + ec.message());
  return static_cast<std::size_t>(size);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace tracered::tools
