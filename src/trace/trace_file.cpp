#include "trace/trace_file.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "trace/trace_codec.hpp"
#include "util/bytebuf.hpp"

namespace tracered {

namespace {

/// streamRecords' sink: hands each push's records to the callbacks.
struct CallbackSink final : FullTraceSink {
  CallbackSink(const TraceFileReader::RecordFn& r, const TraceFileReader::RankFn& k)
      : onRecord(r), onRank(k) {}
  void header(TraceFileFormat, const StringTable&, std::size_t) override {}
  std::vector<RawRecord>& section(Rank rank, std::uint64_t) override {
    if (onRank) onRank(rank);
    return buf;
  }
  void records(Rank rank) override {
    for (const RawRecord& rec : buf) onRecord(rank, rec);
    buf.clear();
  }

  const TraceFileReader::RecordFn& onRecord;
  const TraceFileReader::RankFn& onRank;
  std::vector<RawRecord> buf;
};

}  // namespace

const char* formatName(TraceFileFormat f) {
  switch (f) {
    case TraceFileFormat::kFullBinary:
      return "full binary (TRF1)";
    case TraceFileFormat::kReducedBinary:
      return "reduced binary (TRR1)";
    case TraceFileFormat::kMergedBinary:
      return "merged binary (TRM1)";
    case TraceFileFormat::kText:
      return "text trace v1";
  }
  return "?";
}

TraceFileFormat detectTraceFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("trace_file: cannot open for read: " + path);
  std::vector<std::uint8_t> head(kSniffBytes);
  f.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  const std::size_t n = static_cast<std::size_t>(f.gcount());
  std::optional<TraceFileFormat> format;
  try {
    format = sniffTraceFormat(head.data(), n, /*atEnd=*/n < head.size());
  } catch (const std::runtime_error&) {
    format = std::nullopt;  // reported below, naming the file
  }
  if (!format) throw std::runtime_error("trace_file: unrecognized trace format: " + path);
  return *format;
}

TraceFileReader::TraceFileReader(const std::string& path, std::size_t chunkBytes)
    : in_(path, std::ios::binary),
      chunk_(chunkBytes == 0 ? 1 : chunkBytes),
      decoder_(kMaxPrimitiveBytes) {
  if (!in_) throw std::runtime_error("trace_file: cannot open for read: " + path);
  try {
    while (!decoder_.headerDone() && pushChunk()) {
    }
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("trace_file: '" + path + "': " + e.what());
  }
}

bool TraceFileReader::pushChunk() {
  if (eof_) return false;
  in_.read(reinterpret_cast<char*>(chunk_.data()), static_cast<std::streamsize>(chunk_.size()));
  const std::size_t n = static_cast<std::size_t>(in_.gcount());
  if (n == 0) {
    eof_ = true;
    decoder_.finish();
    return false;
  }
  decoder_.push(chunk_.data(), n);
  return true;
}

void TraceFileReader::decodeInto(FullTraceSink& sink) {
  if (consumed_)
    throw std::logic_error("trace_file: reader already consumed (single-pass)");
  consumed_ = true;
  decoder_.attach(sink);
  while (pushChunk()) {
  }
}

void TraceFileReader::streamRecords(const RecordFn& onRecord, const RankFn& onRank) {
  CallbackSink sink(onRecord, onRank);
  decodeInto(sink);
}

Trace TraceFileReader::readAll() {
  TraceBuilder builder;
  decodeInto(builder);
  return builder.take();
}

TraceFileWriter::TraceFileWriter(const std::string& path, const StringTable& names,
                                 std::size_t numRanks, TraceFileFormat format)
    : format_(format), numRanks_(numRanks) {
  if (format == TraceFileFormat::kReducedBinary)
    throw std::invalid_argument(
        "trace_file: TraceFileWriter writes full traces; serialize reduced traces "
        "with serializeReducedTrace");
  file_.emplace(path, "trace_file");
  std::ofstream& out = file_->stream();
  if (format == TraceFileFormat::kFullBinary) {
    ByteWriter w;
    w.u32(codec::kFullMagic);
    w.u8(codec::kVersion);
    codec::writeStringTable(w, names);
    w.uvarint(numRanks);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
  } else {
    writeTextHeader(out, names, static_cast<int>(numRanks));
  }
}

TraceFileWriter::~TraceFileWriter() = default;  // file_ removes an uncommitted temp

void TraceFileWriter::writeRank(const RankTrace& rankTrace) {
  if (finished_) throw std::logic_error("trace_file: writeRank after finish");
  if (written_ == numRanks_)
    throw std::logic_error("trace_file: more rank sections than declared");
  ++written_;
  // Strictly ascending, non-negative rank ids for both formats: every TRF1
  // reader requires it outright (so streaming output matches offline
  // reduction byte-for-byte), and for text a duplicate id would be silently
  // merged by the parser into a different trace. Enforce at write time so
  // the writer can never emit a file that misreads.
  if (rankTrace.rank <= lastRank_)
    throw std::runtime_error("trace_file: rank sections must have strictly ascending "
                             "non-negative ids; rank " + std::to_string(rankTrace.rank) +
                             " follows rank " + std::to_string(lastRank_));
  lastRank_ = rankTrace.rank;
  std::ofstream& out = file_->stream();
  if (format_ == TraceFileFormat::kFullBinary) {
    ByteWriter w;
    w.uvarint(static_cast<std::uint64_t>(rankTrace.rank));
    w.uvarint(rankTrace.records.size());
    TimeUs prev = 0;
    for (const RawRecord& rec : rankTrace.records) codec::writeRecord(w, rec, prev);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
  } else {
    // The text grammar additionally checks `rank r` against the declared
    // count, so an id beyond it (legal in TRF1) would write a file no
    // reader accepts — fail here, at write time, instead.
    if (static_cast<std::size_t>(rankTrace.rank) >= numRanks_)
      throw std::runtime_error("trace_file: text format requires rank ids in 0.." +
                               std::to_string(numRanks_ - 1) + ", got " +
                               std::to_string(rankTrace.rank));
    writeTextRank(out, rankTrace);
  }
}

void TraceFileWriter::finish() {
  if (finished_) return;
  finished_ = true;
  if (written_ != numRanks_)
    throw std::runtime_error("trace_file: wrote " + std::to_string(written_) + " of " +
                             std::to_string(numRanks_) + " declared rank sections");
  file_->commit();
}

void writeTraceFile(const std::string& path, const Trace& trace, TraceFileFormat format) {
  TraceFileWriter w(path, trace.names(), static_cast<std::size_t>(trace.numRanks()),
                    format);
  for (Rank r = 0; r < trace.numRanks(); ++r) w.writeRank(trace.rank(r));
  w.finish();
}

}  // namespace tracered
