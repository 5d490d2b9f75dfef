// TraceStreamFeeder: the serve daemon's incremental trace parser.
//
// A serve connection receives trace bytes in arbitrary network chunks and
// must make progress with whatever has arrived. The feeder is the full-trace
// push decoder (trace/trace_decoder.hpp) with a sink feeding every decoded
// record straight into an owned ReductionSession: each push decodes all
// complete headers/records (TRF1 or text) and keeps only the incomplete
// tail, so parse memory is bounded by one record, never by the trace. Being
// the same decoder and session as `tracered reduce --streaming` is what
// makes a daemon round trip byte-identical to it (tested in serve_test).
// Malformed input — bad magic or record kind, non-monotonic timestamps, a
// tail beyond `maxPendingBytes` — throws std::runtime_error, which a
// connection turns into an ERROR frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/reduction_session.hpp"
#include "trace/trace_decoder.hpp"

namespace tracered::serve {

class TraceStreamFeeder {
 public:
  /// `maxPendingBytes` bounds the undecoded tail the feeder will hold while
  /// waiting for the rest of a record/primitive (a legal stream never needs
  /// more than one name string; a stream that does is rejected as malformed).
  explicit TraceStreamFeeder(const core::ReductionConfig& config,
                             std::size_t maxPendingBytes = 256 * 1024);

  /// Consumes one chunk of the trace byte stream. Decodes and feeds every
  /// complete record; throws std::runtime_error on malformed input.
  void push(const std::uint8_t* data, std::size_t n) { decoder_.push(data, n); }

  /// Ends the stream: validates completeness (binary: all declared rank
  /// sections seen, no trailing bytes; text: header invariants, idle ranks
  /// announced) and returns the session's result — bit-identical to offline
  /// reduction of the same trace. Throws std::runtime_error on a truncated
  /// stream. Call once.
  core::ReductionResult finishStream();

  /// Undecoded bytes currently buffered (the incomplete tail).
  std::size_t pendingBytes() const { return decoder_.tailBytes(); }

  /// Records decoded and fed so far.
  std::size_t recordsFed() const {
    return sink_.session ? sink_.session->recordsFed() : 0;
  }

 private:
  /// Creates the session from the decoded header and feeds it every record.
  struct SessionSink final : FullTraceSink {
    explicit SessionSink(const core::ReductionConfig& c) : config(c) {}
    void header(TraceFileFormat, const StringTable& names, std::size_t) override;
    std::vector<RawRecord>& section(Rank rank, std::uint64_t) override;
    void records(Rank rank) override;

    core::ReductionConfig config;
    std::optional<core::ReductionSession> session;
    std::vector<RawRecord> buf;
  };

  FullTraceDecoder decoder_;  ///< owns the names the session refers to
  SessionSink sink_;
};

}  // namespace tracered::serve
