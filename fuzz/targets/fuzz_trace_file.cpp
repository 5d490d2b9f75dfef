#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"

namespace tracered::fuzz {

namespace {

// TraceFileReader reads from a path, so the input lands in one scratch file
// per process (libFuzzer is single-process; the replay driver reuses it
// serially). TMPDIR is honored for sandboxed runners.
const std::string& scratchPath() {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    std::string p = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
    return p + "/tracered_fuzz_trace_file_" + std::to_string(::getpid()) + ".bin";
  }();
  return path;
}

void writeScratch(const std::uint8_t* data, std::size_t size) {
  std::ofstream f(scratchPath(), std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
}

}  // namespace

int runTraceFile(const std::uint8_t* data, std::size_t size) {
  // Whole-buffer decode over the raw bytes (no file involved).
  std::optional<Trace> whole;
  try {
    whole = deserializeFullTrace(std::vector<std::uint8_t>(data, data + size));
  } catch (const std::runtime_error&) {  // malformed: documented rejection
  } catch (const std::logic_error&) {    // includes std::out_of_range
  }

  writeScratch(data, size);

  // The same bytes pushed 7 at a time through the file reader. Both are
  // drivers over the one push decoder, so this is an oracle, not just a
  // no-crash run: they must agree on accept vs reject, and on accept decode
  // the same trace. A divergence escapes as a finding.
  std::optional<Trace> chunked;
  try {
    chunked = TraceFileReader(scratchPath(), /*chunkBytes=*/7).readAll();
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }
  if (whole.has_value() != chunked.has_value() ||
      (whole && serializeFullTrace(*whole) != serializeFullTrace(*chunked))) {
    std::fprintf(stderr, "fuzz_trace_file: whole-buffer and 7-byte-chunked decodes disagree\n");
    std::abort();
  }

  // Record-callback path (what `tracered reduce --streaming` drives);
  // callbacks discard the records.
  try {
    TraceFileReader reader(scratchPath());
    reader.streamRecords([](Rank, const RawRecord&) {}, [](Rank) {});
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }
  return 0;
}

}  // namespace tracered::fuzz
