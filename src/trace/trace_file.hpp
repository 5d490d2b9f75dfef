// Streaming trace file I/O: chunked reader/writer for on-disk traces.
//
// trace_io (de)serializes whole traces held in memory; this module is the
// scalable path the `tracered` CLI drives: a TraceFileReader that reads a
// TRF1 or text trace chunk by chunk and pushes each chunk into
// FullTraceDecoder (trace_decoder.hpp), handing out records in file order —
// so a trace never has to fit in memory to be reduced (feed the records to
// ReductionSession::feed) — and a TraceFileWriter that emits rank-by-rank,
// byte-identical to serializeFullTrace (both sit on the same trace_codec
// templates; docs/FORMATS.md is the normative layout spec).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_decoder.hpp"
#include "util/atomic_file.hpp"

namespace tracered {

const char* formatName(TraceFileFormat f);

/// Sniffs `path` with sniffTraceFormat over its first kSniffBytes. Throws
/// std::runtime_error on unreadable or unrecognizable files.
TraceFileFormat detectTraceFile(const std::string& path);

/// Chunked, single-pass reader for FULL traces (binary or text; a reduced
/// or merged file is rejected at open — those are small by construction,
/// read them whole via readFile + deserializeReducedTrace/MergedTrace). The
/// header (string table for binary, the lines before the first `rank`
/// section for text) is decoded at construction; records are decoded on
/// demand, holding about one chunk of the file in memory at any time.
///
/// Decoding is FullTraceDecoder's, so the reader accepts exactly the bytes
/// deserializeFullTrace accepts and yields the same trace, at any chunk size.
class TraceFileReader {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  /// Longest single primitive (in practice a name string or a text line)
  /// the reader will buffer before rejecting the file.
  static constexpr std::size_t kMaxPrimitiveBytes = std::size_t{1} << 30;

  explicit TraceFileReader(const std::string& path,
                           std::size_t chunkBytes = kDefaultChunkBytes);

  TraceFileFormat format() const { return decoder_.format().value(); }

  /// The trace-wide string table. Stable address for the reader's lifetime
  /// (hand it to ReductionSession); for text input it can still grow while
  /// streaming (`string` directives may legally trail the header).
  const StringTable& names() const { return decoder_.names(); }

  /// Declared rank count (binary: header field; text: `ranks` directive).
  std::size_t numRanks() const { return decoder_.numRanks(); }

  using RecordFn = std::function<void(Rank, const RawRecord&)>;
  using RankFn = std::function<void(Rank)>;

  /// Streams every record in file order through `onRecord` in one pass.
  /// `onRank`, if set, fires whenever a rank section begins, as
  /// FullTraceSink::section does — empty sections and (text) declared ranks
  /// without a section included, so feed/ensureRank wiring reproduces
  /// offline reduction's rank set exactly. Call once; throws
  /// std::runtime_error / std::out_of_range on malformed input.
  void streamRecords(const RecordFn& onRecord, const RankFn& onRank = {});

  /// Materializes the whole trace: exactly deserializeFullTrace of the
  /// file's bytes. Call once (consumes the stream).
  Trace readAll();

  /// High-water mark of the read chunk plus the decoder's tail — stays near
  /// the chunk size no matter how large the file is (tested; the "never
  /// loads the whole trace into one buffer" guarantee).
  std::size_t maxBufferedBytes() const { return chunk_.size() + decoder_.tailHighWater(); }

 private:
  bool pushChunk();  ///< reads and pushes one chunk; false once input ended
  void decodeInto(FullTraceSink& sink);

  std::ifstream in_;
  std::vector<std::uint8_t> chunk_;
  FullTraceDecoder decoder_;
  bool eof_ = false;
  bool consumed_ = false;
};

/// Rank-at-a-time writer for full traces. Writes the header at construction
/// and one rank section per writeRank() call, so only one rank's records are
/// ever in memory. For binary output the bytes are identical to
/// writeFile(path, serializeFullTrace(trace)) of the same trace.
class TraceFileWriter {
 public:
  /// Opens a temp file beside `path` and writes the header. `names` must
  /// already contain every name the ranks' records reference. `format` must
  /// be kFullBinary or kText (reduced traces are written whole via
  /// serializeReducedTrace).
  TraceFileWriter(const std::string& path, const StringTable& names, std::size_t numRanks,
                  TraceFileFormat format = TraceFileFormat::kFullBinary);

  /// Removes the temp file unless finish() succeeded: an abandoned write
  /// leaves nothing at `path`.
  ~TraceFileWriter();

  /// Appends one rank section, in file order. Throws std::logic_error after
  /// numRanks sections or after finish().
  void writeRank(const RankTrace& rankTrace);

  /// Checks completeness, then flushes, closes and renames the temp file to
  /// `path`. Throws std::runtime_error (leaving nothing at `path`) if fewer
  /// than numRanks sections were written or any write failed.
  void finish();

 private:
  std::optional<util::AtomicOutputFile> file_;  ///< Engaged once the format is checked.
  TraceFileFormat format_;
  std::size_t numRanks_;
  std::size_t written_ = 0;
  Rank lastRank_ = -1;  ///< id of the previous rank section; -1 before any
  bool finished_ = false;
};

/// Whole-trace convenience over TraceFileWriter.
void writeTraceFile(const std::string& path, const Trace& trace,
                    TraceFileFormat format = TraceFileFormat::kFullBinary);

}  // namespace tracered
