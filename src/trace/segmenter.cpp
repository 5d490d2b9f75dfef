#include "trace/segmenter.hpp"

#include <stdexcept>
#include <string>

namespace tracered {

RankSegmenter::RankSegmenter(Rank rank, const StringTable& names)
    : names_(&names), rank_(rank) {}

void RankSegmenter::fail(const std::string& what) const {
  throw std::runtime_error("segmenter: rank " + std::to_string(rank_) + ": " +
                           what);
}

void RankSegmenter::failNamed(const char* what, NameId name) const {
  fail(what + ("'" + names_->name(name) + "'"));
}

void RankSegmenter::failOrder(const char* what, NameId name, const char* verb, TimeUs time,
                              const char* reference, TimeUs referenceTime) const {
  fail(what + (" '" + names_->name(name) + "' ") + verb + " at " + std::to_string(time) +
       "us, before its " + reference + " at " + std::to_string(referenceTime) + "us");
}

inline const SegmentHeader* RankSegmenter::step(const RawRecord& rec,
                                                 std::vector<EventInterval>& pool) {
  switch (rec.kind) {
    case RecordKind::kSegBegin: {
      if (hasPendingEnter_) fail("segment begins inside an open event");
      if (inSegment_) failNamed("nested segment begin for context ", rec.name);
      current_.context = rec.name;
      current_.absStart = rec.time;
      current_.offset = pool.size();
      inSegment_ = true;
      return nullptr;
    }
    case RecordKind::kSegEnd: {
      if (hasPendingEnter_) fail("segment ends inside an open event");
      if (!inSegment_ || current_.context != rec.name)
        failNamed("unmatched segment end for context ", rec.name);
      if (rec.time < current_.absStart)
        failOrder("segment", rec.name, "ends", rec.time, "begin", current_.absStart);
      current_.end = rec.time - current_.absStart;
      current_.count = pool.size() - current_.offset;
      inSegment_ = false;
      return &current_;
    }
    case RecordKind::kEnter: {
      if (hasPendingEnter_) fail("nested function enter (flat event model expected)");
      if (!inSegment_) failNamed("event outside any segment: ", rec.name);
      if (rec.time < current_.absStart)
        failOrder("event", rec.name, "enters", rec.time, "segment began", current_.absStart);
      pendingEnter_ = rec;
      hasPendingEnter_ = true;
      return nullptr;
    }
    case RecordKind::kExit: {
      if (!hasPendingEnter_ || pendingEnter_.name != rec.name)
        failNamed("exit without matching enter: ", rec.name);
      if (rec.time < pendingEnter_.time)
        failOrder("event", rec.name, "exits", rec.time, "enter", pendingEnter_.time);
      // Rebased relative to the segment start as it is stored (the first
      // loop of the paper's matching algorithm).
      EventInterval ev;
      ev.name = rec.name;
      ev.op = pendingEnter_.op;
      ev.msg = pendingEnter_.msg;
      ev.start = pendingEnter_.time - current_.absStart;
      ev.end = rec.time - current_.absStart;
      pool.push_back(ev);
      hasPendingEnter_ = false;
      return nullptr;
    }
  }
  return nullptr;
}

const SegmentHeader* RankSegmenter::push(const RawRecord& rec,
                                         std::vector<EventInterval>& pool) {
  return step(rec, pool);
}

void RankSegmenter::finish() const {
  if (hasPendingEnter_) fail("trace ends inside an open event");
  if (inSegment_) fail("trace ends inside an open segment");
}

RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names,
                         std::size_t expectedSegments) {
  RankSegments out;
  out.rank = rankTrace.rank;
  // Every event takes an enter and an exit record, so half the records bound
  // the pool. Segments are few beside events: the same bound on the headers
  // would leave most of their capacity untouched for the result's lifetime,
  // and per-op heap growth that glibc trims and faults back in on the next
  // op. They are reserved at the caller's guess and trimmed instead.
  out.reserve(expectedSegments, rankTrace.records.size() / 2);
  RankSegmenter segmenter(rankTrace.rank, names);
  for (const RawRecord& rec : rankTrace.records)
    if (const SegmentHeader* closed = segmenter.step(rec, out.pool_))
      out.headers_.push_back(*closed);
  segmenter.finish();
  out.headers_.shrink_to_fit();  // no copy when the guess was exact
  return out;
}

Trace desegmentTrace(const SegmentedTrace& segmented, const StringTable& names) {
  Trace trace;
  for (const auto& s : names.all()) trace.names().intern(s);
  for (const RankSegments& rs : segmented.ranks) {
    RankTrace& rt = trace.addRank();
    rt.rank = rs.rank;
    for (const SegmentView seg : rs) {
      RawRecord rec;
      rec.kind = RecordKind::kSegBegin;
      rec.name = seg.context;
      rec.time = seg.absStart;
      rt.records.push_back(rec);
      for (const EventInterval& e : seg.events) {
        RawRecord enter;
        enter.kind = RecordKind::kEnter;
        enter.op = e.op;
        enter.name = e.name;
        enter.time = seg.absStart + e.start;
        enter.msg = e.msg;
        rt.records.push_back(enter);
        RawRecord exit;
        exit.kind = RecordKind::kExit;
        exit.name = e.name;
        exit.time = seg.absStart + e.end;
        rt.records.push_back(exit);
      }
      rec.kind = RecordKind::kSegEnd;
      rec.time = seg.absStart + seg.end;
      rt.records.push_back(rec);
    }
  }
  return trace;
}

SegmentedTrace segmentTrace(const Trace& trace) {
  SegmentedTrace out;
  out.ranks.reserve(static_cast<std::size_t>(trace.numRanks()));
  std::size_t expected = 0;  // each rank's guess is the previous rank's count
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    out.ranks.push_back(segmentRank(trace.rank(r), trace.names(), expected));
    expected = out.ranks.back().size();
  }
  return out;
}

}  // namespace tracered
