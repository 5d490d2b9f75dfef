// Trace segments (Sec. 3.1 of the paper).
//
// A segment is the span between a start_segment/end_segment marker pair: one
// loop iteration, the initialization phase, or the finalization phase. After
// segmentation, every event timestamp inside a segment is rebased relative to
// the segment start; the absolute start time is retained separately so a full
// trace can be recreated (segmentExecs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/event.hpp"

namespace tracered {

/// One trace segment with rebased (segment-relative) event timestamps.
struct Segment {
  NameId context = kInvalidName;  ///< Segment context, e.g. "main.1".
  Rank rank = 0;
  TimeUs absStart = 0;  ///< Absolute start time in the original trace.
  TimeUs end = 0;       ///< Segment end, relative to absStart.
  std::vector<EventInterval> events;  ///< Rebased to absStart.

  /// True if `other` could possibly match this segment (Sec. 4.3.2): same
  /// context, same number of events, same event identities (function, op and
  /// message parameters) in the same order. This is the precondition that
  /// compareSegments checks before applying the similarity test.
  bool compatible(const Segment& other) const;

  /// Stable 64-bit signature of (context, event identities). Two segments are
  /// `compatible` only if their signatures are equal; the reducer buckets
  /// stored segments by this to avoid quadratic scans.
  std::uint64_t signature() const;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Measurement vector in the order used by the Minkowski distances
/// (Sec. 3.2.1, Fig. 2 example: s2 -> (49, 1, 17, 18, 48)): segment end
/// first, then each event's start and end.
std::vector<double> distanceVector(const Segment& s);

/// distanceVector written into `out`, which must hold exactly
/// 1 + 2 * s.events.size() elements.
void writeDistanceVector(const Segment& s, std::span<double> out);

/// Measurement vector in the order used by the wavelet methods (Sec. 3.2.1):
/// segment (relative) start 0 first, then each event's entry and exit, then
/// the segment exit. Not yet padded; see wavelet::padToPow2.
std::vector<double> waveletVector(const Segment& s);

/// waveletVector written into the front of `out` (at least
/// 2 + 2 * s.events.size() elements), with the rest of `out` zeroed — the
/// padded vector in one pass when `out` has the padded length.
void writeWaveletVector(const Segment& s, std::span<double> out);

/// Paired per-measurement iteration used by relDiff/absDiff: calls
/// `f(a_i, b_i)` for every corresponding measurement (event starts/ends, then
/// segment end) and stops early when `f` returns false. Returns false iff any
/// call returned false. Requires a.compatible(b).
template <typename F>
bool forEachMeasurementPair(const Segment& a, const Segment& b, F&& f) {
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (!f(static_cast<double>(a.events[i].start), static_cast<double>(b.events[i].start)))
      return false;
    if (!f(static_cast<double>(a.events[i].end), static_cast<double>(b.events[i].end)))
      return false;
  }
  return f(static_cast<double>(a.end), static_cast<double>(b.end));
}

/// Per-rank segmented trace: the ordered segments of one rank.
struct RankSegments {
  Rank rank = 0;
  std::vector<Segment> segments;
};

/// Segmented view of a whole application trace.
struct SegmentedTrace {
  std::vector<RankSegments> ranks;

  std::size_t totalSegments() const {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.segments.size();
    return n;
  }
  std::size_t totalEvents() const {
    std::size_t n = 0;
    for (const auto& r : ranks)
      for (const auto& s : r.segments) n += s.events.size();
    return n;
  }
};

}  // namespace tracered
