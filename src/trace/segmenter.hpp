// Converts raw per-rank record streams into segments (Sec. 3.1).
//
// The simulator emits start_segment/end_segment markers exactly the way the
// paper's Dyninst instrumentation does (Fig. 1): initialization, every loop
// iteration, and finalization are bracketed. The segmenter pairs enters with
// exits inside each bracket and rebases timestamps relative to the segment
// start.
//
// RankSegmenter is the one place records become segments. The offline
// drivers (segmentRank/segmentTrace) loop over a materialized rank with it;
// the streaming core::ReductionSession pushes each record through one per
// rank as it arrives. Both therefore accept exactly the same streams and
// reject the rest with the same diagnostic.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/segment.hpp"
#include "trace/trace.hpp"

namespace tracered {

/// Push state machine that segments one rank's record stream.
///
/// Strict rules, each a std::runtime_error "segmenter: rank N: ...":
/// segments do not nest, every event lies inside a segment, events are flat
/// (an enter is followed by its own exit), and no end or exit precedes its
/// begin or enter (no negative duration may flow into reduction). Equal
/// timestamps are valid.
class RankSegmenter {
 public:
  /// `names` is the table the records' NameIds refer to (used only for
  /// diagnostics); it must outlive the segmenter.
  RankSegmenter(Rank rank, const StringTable& names);

  /// Feeds the next record. An event the record closes is appended to
  /// `pool`, rebased to its segment's start. Returns the header of the
  /// segment `record` closed, whose events are pool[offset, offset + count),
  /// or nullptr if it closed none. Every record of one segment must be pushed
  /// with the same pool, and the pool must not shrink while the segment is
  /// open; between segments the caller may clear it. The header stays valid
  /// until the next push.
  const SegmentHeader* push(const RawRecord& record, std::vector<EventInterval>& pool);

  /// Checks the end of the stream: throws if an event or a segment is
  /// still open.
  void finish() const;

  Rank rank() const { return rank_; }

 private:
  friend RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names,
                                  std::size_t expectedSegments);

  /// push()'s body. Defined inline in the .cpp so segmentRank's loop
  /// inlines it instead of paying a call per record (a measured ~25% of
  /// segmentTrace on sweep3d).
  inline const SegmentHeader* step(const RawRecord& record,
                                   std::vector<EventInterval>& pool);

  // Diagnostics, out of line so the inlined step() stays compact:
  // "<what>'<name>'" and "<what> '<name>' <verb> at <time>us, before its
  // <reference> at <referenceTime>us".
  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void failNamed(const char* what, NameId name) const;
  [[noreturn]] void failOrder(const char* what, NameId name, const char* verb, TimeUs time,
                              const char* reference, TimeUs referenceTime) const;

  const StringTable* names_;
  Rank rank_;
  SegmentHeader current_;  ///< The open segment if inSegment_ (count set at its end).
  // The open function invocation. A value+flag pair instead of
  // std::optional: GCC 12's -O2 inliner cannot prove the optional's payload
  // is engaged at the read sites and raises a -Wmaybe-uninitialized false
  // positive, which the always-initialized value sidesteps (the CI Werror
  // job builds Release).
  RawRecord pendingEnter_{};
  bool hasPendingEnter_ = false;
  bool inSegment_ = false;
};

/// Segments one rank's record stream. Throws std::runtime_error on
/// malformed input (see RankSegmenter). Room for `expectedSegments` headers
/// is reserved up front and the headers are trimmed to size after, so the
/// result holds no unused header capacity; a wrong guess costs a regrowth or
/// a trim copy, never a wrong result.
RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names,
                         std::size_t expectedSegments);

/// Segments an entire trace. Each rank's expected segment count is the
/// previous rank's count, which SPMD ranks repeat.
SegmentedTrace segmentTrace(const Trace& trace);

/// Inverse of segmentTrace: renders segments back into raw marker/enter/exit
/// records with absolute timestamps, using `names` as the record streams'
/// string table (copied into the result). segmentTrace(desegmentTrace(s, n))
/// reproduces `s` exactly; reconstructed (approximated) traces go through
/// this to become full traces again (`tracered convert --reconstruct`).
Trace desegmentTrace(const SegmentedTrace& segmented, const StringTable& names);

}  // namespace tracered
