// Trace segments (Sec. 3.1 of the paper).
//
// A segment is the span between a start_segment/end_segment marker pair: one
// loop iteration, the initialization phase, or the finalization phase. After
// segmentation, every event timestamp inside a segment is rebased relative to
// the segment start; the absolute start time is retained separately so a full
// trace can be recreated (segmentExecs).
//
// Segmented traces are columnar: a RankSegments keeps all of its rank's
// events in one pool plus one small SegmentHeader per segment, and hands out
// SegmentViews into that pool. Segmenting a rank therefore costs a couple of
// allocations, not one per segment. The owning Segment is kept for the few
// segments that outlive their trace or get rewritten: the representatives of
// a reduction and the segments the TRR1/TRM1 codecs read. Everything that
// compares segments (signature, compatible, the measurement vectors, the
// similarity policies) takes a SegmentView, which both kinds convert to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/event.hpp"

namespace tracered {

struct RankTrace;
class StringTable;

/// A read-only segment: its header fields by value plus its rebased events,
/// which live in a RankSegments pool or an owning Segment and must outlive
/// the view.
struct SegmentView {
  NameId context = kInvalidName;  ///< Segment context, e.g. "main.1".
  Rank rank = 0;
  TimeUs absStart = 0;  ///< Absolute start time in the original trace.
  TimeUs end = 0;       ///< Segment end, relative to absStart.
  std::span<const EventInterval> events;  ///< Rebased to absStart.

  /// True if `other` could possibly match this segment (Sec. 4.3.2): same
  /// context, same number of events, same event identities (function, op and
  /// message parameters) in the same order. This is the precondition that
  /// compareSegments checks before applying the similarity test.
  bool compatible(const SegmentView& other) const;

  /// Stable 64-bit signature of (context, event identities). Two segments are
  /// `compatible` only if their signatures are equal; the reducer buckets
  /// stored segments by this to avoid quadratic scans.
  std::uint64_t signature() const;

  /// Equal header fields and equal events, wherever either side's events
  /// are stored.
  friend bool operator==(const SegmentView& a, const SegmentView& b);
};

/// One owning trace segment with rebased (segment-relative) event times.
struct Segment {
  NameId context = kInvalidName;
  Rank rank = 0;
  TimeUs absStart = 0;
  TimeUs end = 0;
  std::vector<EventInterval> events;  ///< Rebased to absStart.

  SegmentView view() const { return {context, rank, absStart, end, events}; }
  operator SegmentView() const { return view(); }  // implicit, like string to string_view

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Measurement vector in the order used by the Minkowski distances
/// (Sec. 3.2.1, Fig. 2 example: s2 -> (49, 1, 17, 18, 48)): segment end
/// first, then each event's start and end.
std::vector<double> distanceVector(const SegmentView& s);

/// distanceVector written into `out`, which must hold exactly
/// 1 + 2 * s.events.size() elements.
void writeDistanceVector(const SegmentView& s, std::span<double> out);

/// Measurement vector in the order used by the wavelet methods (Sec. 3.2.1):
/// segment (relative) start 0 first, then each event's entry and exit, then
/// the segment exit. Not yet padded; see wavelet::padToPow2.
std::vector<double> waveletVector(const SegmentView& s);

/// waveletVector written into the front of `out` (at least
/// 2 + 2 * s.events.size() elements), with the rest of `out` zeroed — the
/// padded vector in one pass when `out` has the padded length.
void writeWaveletVector(const SegmentView& s, std::span<double> out);

/// Paired per-measurement iteration used by relDiff/absDiff: calls
/// `f(a_i, b_i)` for every corresponding measurement (event starts/ends, then
/// segment end) and stops early when `f` returns false. Returns false iff any
/// call returned false. Requires a.compatible(b).
template <typename F>
bool forEachMeasurementPair(const SegmentView& a, const SegmentView& b, F&& f) {
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (!f(static_cast<double>(a.events[i].start), static_cast<double>(b.events[i].start)))
      return false;
    if (!f(static_cast<double>(a.events[i].end), static_cast<double>(b.events[i].end)))
      return false;
  }
  return f(static_cast<double>(a.end), static_cast<double>(b.end));
}

/// Where one segment of a rank sits: its own fields plus the range
/// [offset, offset + count) of the rank's event pool. 64-bit offset and
/// count, so no pool an input can build wraps them.
struct SegmentHeader {
  NameId context = kInvalidName;
  TimeUs absStart = 0;
  TimeUs end = 0;
  std::size_t offset = 0;
  std::size_t count = 0;

  /// This segment as a view of `rank` over `pool`.
  SegmentView view(Rank rank, std::span<const EventInterval> pool) const {
    return {context, rank, absStart, end, pool.subspan(offset, count)};
  }
};

/// The ordered segments of one rank, stored columnar: one event pool for the
/// whole rank and one SegmentHeader per segment. Indexing or iterating yields
/// SegmentViews into the pool, valid while the RankSegments is alive and not
/// appended to. Several headers may share one range of the pool
/// (reconstruction stamps each representative's events once).
struct RankSegments {
  Rank rank = 0;

  class Iterator {
   public:
    using value_type = SegmentView;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    SegmentView operator*() const { return (*owner_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++index_;
      return before;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    friend struct RankSegments;
    Iterator(const RankSegments* owner, std::size_t index) : owner_(owner), index_(index) {}
    const RankSegments* owner_ = nullptr;
    std::size_t index_ = 0;
  };

  std::size_t size() const { return headers_.size(); }
  bool empty() const { return headers_.empty(); }
  SegmentView operator[](std::size_t i) const { return headers_[i].view(rank, pool_); }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, headers_.size()}; }

  /// Appends `seg` (its events copied into the pool; its rank is this one's).
  void push_back(const SegmentView& seg);

  /// Appends `events` to the pool and returns the offset of the first, for
  /// headers that share the range (addShared).
  std::size_t appendEvents(std::span<const EventInterval> events);

  /// Appends a segment whose events are pool[offset, offset + count).
  /// Throws std::out_of_range when that range is not inside the pool.
  void addShared(const SegmentHeader& header);

  /// Reserves room for `segments` headers and `events` pooled events.
  void reserve(std::size_t segments, std::size_t events);

  /// Every event this rank stores, shared ranges counted once.
  std::span<const EventInterval> pool() const { return pool_; }

  /// Sum of the segments' event counts (shared ranges counted per segment).
  std::size_t totalEvents() const;

  /// Same rank and segment-by-segment equal views, whatever the pool layout.
  friend bool operator==(const RankSegments& a, const RankSegments& b);

 private:
  friend RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names,
                                  std::size_t expectedSegments);

  std::vector<EventInterval> pool_;
  std::vector<SegmentHeader> headers_;
};

/// Segmented view of a whole application trace.
struct SegmentedTrace {
  std::vector<RankSegments> ranks;

  std::size_t totalSegments() const {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.size();
    return n;
  }
  std::size_t totalEvents() const {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.totalEvents();
    return n;
  }

  friend bool operator==(const SegmentedTrace&, const SegmentedTrace&) = default;
};

}  // namespace tracered
