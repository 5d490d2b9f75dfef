// FullTraceDecoder: the one decoder for full traces, TRF1 and text alike.
//
// A push state machine: push() takes the next bytes of a trace, split
// anywhere, sniffs the format, decodes every complete header field, rank
// section and record those bytes contain, and keeps only the undecoded tail
// (a push into an empty tail decodes straight from the caller's bytes).
// Everything decoded goes to a FullTraceSink. Every full-trace reader is a
// thin driver over it — deserializeFullTrace pushes the whole buffer once
// into a TraceBuilder, TraceFileReader pushes one file chunk at a time, the
// serve daemon's TraceStreamFeeder pushes each DATA frame into a
// ReductionSession sink — so whole-buffer, chunked and streamed decodes
// accept the same bytes and yield the same trace by construction.
// docs/FORMATS.md is the normative spec; the TRF1 record encoding lives in
// trace_codec.hpp, the text grammar in TextTraceParser.
//
// Exceptions: std::runtime_error means malformed (no suffix can fix it) and
// comes from the push that delivers the offending bytes; std::out_of_range
// means truncated and comes only from finish().
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "trace/text_io.hpp"
#include "trace/trace.hpp"

namespace tracered {

/// On-disk trace flavors the format sniff tells apart.
enum class TraceFileFormat {
  kFullBinary,     ///< "TRF1": full trace, binary (docs/FORMATS.md §1).
  kReducedBinary,  ///< "TRR1": reduced trace, binary (docs/FORMATS.md §2).
  kMergedBinary,   ///< "TRM1": cross-rank merged trace (docs/FORMATS.md §2b).
  kText,           ///< Text trace v1, full traces only (docs/FORMATS.md §3).
};

/// The format sniff never looks at (or waits for) more than this many bytes.
inline constexpr std::size_t kSniffBytes = 64 * 1024;

/// Classifies a trace by its first `n` bytes (docs/FORMATS.md §5). Returns
/// nullopt while more bytes could still decide (before `atEnd`), and at the
/// end for a strict prefix of a magic, empty input included (a truncated
/// binary header). Throws std::runtime_error if the bytes are no trace.
std::optional<TraceFileFormat> sniffTraceFormat(const std::uint8_t* data, std::size_t n,
                                                bool atEnd);

/// Receives what a FullTraceDecoder decodes, in stream order. Records are
/// delivered per section and per push, not one call per record: the decoder
/// appends them straight into a vector the sink hands out.
class FullTraceSink {
 public:
  /// Called once, before the first section. `names` keeps its address for
  /// the decoder's lifetime; a text trace's table may still grow.
  virtual void header(TraceFileFormat format, const StringTable& names,
                      std::size_t numRanks) = 0;

  /// A rank section begins; returns the vector its records are appended to.
  /// TRF1 section ids are strictly ascending and `declaredRecords` is the
  /// section's (untrusted) count. Text sections begin whenever the current
  /// rank changes (0 declared), and each declared rank without a section is
  /// announced, ascending, at the end.
  virtual std::vector<RawRecord>& section(Rank rank, std::uint64_t declaredRecords) = 0;

  /// The records appended since the last section()/records() call are
  /// complete. Called before each new section and at the end of every push,
  /// so a consuming sink may clear the vector here.
  virtual void records(Rank rank) = 0;

 protected:
  ~FullTraceSink() = default;  // sinks are never deleted through this type
};

/// Sink that materializes the decoded trace.
class TraceBuilder final : public FullTraceSink {
 public:
  void header(TraceFileFormat format, const StringTable& names,
              std::size_t numRanks) override;
  std::vector<RawRecord>& section(Rank rank, std::uint64_t declaredRecords) override;
  void records(Rank) override {}

  /// The decoded trace; call once, after the decoder's finish().
  Trace take();

 private:
  Trace trace_;
  const StringTable* names_ = nullptr;
  bool denseIds_ = false;  ///< text: sections address ranks 0..n-1 by id
};

class FullTraceDecoder {
 public:
  /// `tailLimit` bounds the undecoded tail. A legal trace never needs more
  /// than one record, string or text line of it, so a longer tail, or a
  /// string declaring a longer length, is rejected as malformed.
  explicit FullTraceDecoder(
      std::size_t tailLimit = std::numeric_limits<std::size_t>::max());

  FullTraceDecoder(const FullTraceDecoder&) = delete;
  FullTraceDecoder& operator=(const FullTraceDecoder&) = delete;

  /// Attaches the sink (once) and decodes what the tail already holds. Until
  /// then the decoder stops at the header's end (TRF1: the rank count; text:
  /// the first `rank` line), so a reader learns names() and numRanks()
  /// before deciding where records go.
  void attach(FullTraceSink& sink);

  /// Decodes the next `n` bytes of the trace.
  void push(const std::uint8_t* data, std::size_t n);

  /// Ends the input (once): decodes a final unterminated text line and
  /// checks the trace is complete; with a sink attached, also announces idle
  /// text ranks and delivers the last records. Without a sink only the
  /// header must be complete, and a later attach() finishes the job.
  void finish();

  bool headerDone() const { return headerDone_; }

  /// The sniffed format; empty until enough bytes arrived to decide.
  std::optional<TraceFileFormat> format() const { return format_; }

  /// The trace's string table (stable address; text traces may grow it).
  const StringTable& names() const;

  /// Declared rank count (TRF1 header field or text `ranks` directive).
  std::size_t numRanks() const;

  /// Undecoded bytes held now, and the most ever held at once.
  std::size_t tailBytes() const { return tail_.size(); }
  std::size_t tailHighWater() const { return tailHighWater_; }

 private:
  enum class Bin : std::uint8_t {
    kHeader,       ///< magic + version
    kStringCount,  ///< string-table entry count
    kStrings,      ///< string-table entries, one per step
    kNumRanks,     ///< declared rank count: the header ends here
    kSection,      ///< next rank id + record count
    kRecords,      ///< records of the current section
    kDone,         ///< every declared section read; no byte may follow
  };

  /// Decodes from `p` on; returns how many bytes it consumed.
  std::size_t decode(const std::uint8_t* p, std::size_t n, bool atEnd);
  std::size_t decodeBinary(const std::uint8_t* p, std::size_t n);
  std::size_t decodeText(const std::uint8_t* p, std::size_t n, bool atEnd);
  void decodeTail(bool atEnd);
  void sendHeader();
  void openSection(Rank rank, std::uint64_t declaredRecords);
  void flush();
  void complete();

  std::size_t tailLimit_;
  std::vector<std::uint8_t> tail_;
  std::size_t tailHighWater_ = 0;
  std::optional<TraceFileFormat> format_;
  FullTraceSink* sink_ = nullptr;
  bool headerDone_ = false;
  bool headerSent_ = false;
  bool ended_ = false;
  std::vector<RawRecord>* records_ = nullptr;  ///< current section's vector
  Rank curRank_ = -1;

  // TRF1 state.
  Bin bin_ = Bin::kHeader;
  StringTable binNames_;
  std::uint64_t stringsLeft_ = 0;
  std::uint64_t numRanks_ = 0;
  std::uint64_t sectionsSeen_ = 0;
  std::int64_t prevRank_ = -1;
  std::uint64_t recsLeft_ = 0;
  TimeUs prevTime_ = 0;

  // Text state.
  TextTraceParser text_;
  std::string line_;
  std::vector<bool> announced_;  ///< declared ranks that had a section
};

}  // namespace tracered
