// Tests for the segmenter: marker pairing, rebase semantics (Fig. 1/2),
// malformed-input diagnostics, and the columnar RankSegments it builds.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "trace/segmenter.hpp"
#include "trace/trace.hpp"

// Every global operator new in this binary is counted, so a test can assert
// how often a code path allocates (array new and the array deletes forward
// to these by default). The deletes stay out of line so the optimizer never
// pairs an inlined free() with a call to operator new.
namespace {
std::atomic<std::size_t> gNewCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tracered {
namespace {

Trace figureOneTrace() {
  // A miniature of Fig. 1: init segment, two "main.1" iterations, final.
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("init", 0);
  w.enter("MPI_Init", OpKind::kInit, 2);
  w.exit("MPI_Init", 40);
  w.segEnd("init", 41);

  for (int i = 0; i < 2; ++i) {
    const TimeUs base = 100 + 100 * i;
    w.segBegin("main.1", base);
    w.enter("do_work", OpKind::kCompute, base + 1, {});
    w.exit("do_work", base + 20);
    MsgInfo m;
    m.comm = 0;
    m.bytes = 8;
    w.enter("MPI_Allgather", OpKind::kAllgather, base + 21, m);
    w.exit("MPI_Allgather", base + 49);
    w.segEnd("main.1", base + 50);
  }

  w.segBegin("final", 400);
  w.enter("MPI_Finalize", OpKind::kFinalize, 401);
  w.exit("MPI_Finalize", 420);
  w.segEnd("final", 421);
  return trace;
}

TEST(Segmenter, SplitsIntoSegmentsAndRebases) {
  const Trace trace = figureOneTrace();
  const SegmentedTrace st = segmentTrace(trace);
  ASSERT_EQ(st.ranks.size(), 1u);
  const RankSegments& segs = st.ranks[0];
  ASSERT_EQ(segs.size(), 4u);

  EXPECT_EQ(trace.names().name(segs[0].context), "init");
  EXPECT_EQ(trace.names().name(segs[1].context), "main.1");
  EXPECT_EQ(trace.names().name(segs[2].context), "main.1");
  EXPECT_EQ(trace.names().name(segs[3].context), "final");

  // Rebased: both iterations look identical apart from absStart.
  const SegmentView a = segs[1];
  const SegmentView b = segs[2];
  EXPECT_EQ(a.absStart, 100);
  EXPECT_EQ(b.absStart, 200);
  ASSERT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.events[0].start, 1);
  EXPECT_EQ(a.events[0].end, 20);
  EXPECT_EQ(a.events[1].start, 21);
  EXPECT_EQ(a.events[1].end, 49);
  EXPECT_EQ(a.end, 50);
  EXPECT_TRUE(a.compatible(b));
  EXPECT_EQ(a.events[0].start, b.events[0].start);
}

TEST(Segmenter, PreservesMessageInfo) {
  const Trace trace = figureOneTrace();
  const SegmentedTrace st = segmentTrace(trace);
  const auto& ev = st.ranks[0][1].events[1];
  EXPECT_EQ(ev.op, OpKind::kAllgather);
  EXPECT_EQ(ev.msg.bytes, 8u);
  EXPECT_EQ(ev.msg.comm, 0);
}

TEST(Segmenter, RejectsEventOutsideSegment) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.enter("f", OpKind::kCompute, 0);
  w.exit("f", 5);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsUnmatchedSegmentEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.segEnd("b", 5);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsNestedSegments) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.segBegin("b", 1);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsUnpairedExit) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.exit("f", 3);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsOpenSegmentAtEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsOpenEventAtSegmentEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.enter("f", OpKind::kCompute, 1);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsNonMonotonicTimestamps) {
  // No negative duration may flow into reduction (the streaming session
  // pushes through the same RankSegmenter, so it rejects the same traces).
  // RankTraceWriter already refuses to WRITE such records, so inject them
  // directly — the way a corrupted or foreign trace file would deliver them.
  auto makeTrace = [](const std::vector<std::pair<RecordKind, TimeUs>>& recs) {
    Trace trace(1);
    const NameId ctx = trace.names().intern("a");
    const NameId fn = trace.names().intern("f");
    for (const auto& [kind, time] : recs) {
      RawRecord r;
      r.kind = kind;
      r.name = (kind == RecordKind::kSegBegin || kind == RecordKind::kSegEnd) ? ctx : fn;
      r.time = time;
      trace.rank(0).records.push_back(r);
    }
    return trace;
  };

  // Segment ends before it began.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kSegEnd, 50}})),
               std::runtime_error);
  // Event exits before it entered.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kEnter, 150},
                                       {RecordKind::kExit, 140}})),
               std::runtime_error);
  // Event enters before its segment began.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kEnter, 90}})),
               std::runtime_error);
  // Zero-length segment and event stay valid.
  EXPECT_EQ(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                    {RecordKind::kEnter, 100},
                                    {RecordKind::kExit, 100},
                                    {RecordKind::kSegEnd, 100}}))
                .totalSegments(),
            1u);
}

TEST(Segmenter, PushReturnsEachClosedSegmentRebased) {
  StringTable names;
  const NameId ctx = names.intern("a");
  const NameId fn = names.intern("f");
  RankSegmenter seg(4, names);
  std::vector<EventInterval> pool;
  auto push = [&](RecordKind kind, NameId name, TimeUs time) {
    RawRecord r;
    r.kind = kind;
    r.name = name;
    r.time = time;
    return seg.push(r, pool);
  };

  EXPECT_EQ(push(RecordKind::kSegBegin, ctx, 100), nullptr);
  EXPECT_EQ(push(RecordKind::kEnter, fn, 110), nullptr);
  EXPECT_EQ(push(RecordKind::kExit, fn, 130), nullptr);
  ASSERT_EQ(pool.size(), 1u);  // appended, already rebased, at its exit
  const SegmentHeader* closed = push(RecordKind::kSegEnd, ctx, 150);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->absStart, 100);
  EXPECT_EQ(closed->end, 50);
  EXPECT_EQ(closed->offset, 0u);
  ASSERT_EQ(closed->count, 1u);
  const SegmentView view = closed->view(seg.rank(), pool);
  EXPECT_EQ(view.rank, 4);
  EXPECT_EQ(view.events[0].start, 10);
  EXPECT_EQ(view.events[0].end, 30);
  seg.finish();  // nothing open

  // Without a clear the next segment's events follow in the same pool.
  EXPECT_EQ(push(RecordKind::kSegBegin, ctx, 200), nullptr);
  EXPECT_EQ(push(RecordKind::kEnter, fn, 201), nullptr);
  EXPECT_EQ(push(RecordKind::kExit, fn, 202), nullptr);
  closed = push(RecordKind::kSegEnd, ctx, 205);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->offset, 1u);
  EXPECT_EQ(closed->count, 1u);
  EXPECT_EQ(closed->end, 5);
  EXPECT_EQ(pool[1].start, 1);

  // After a clear (the streaming lane's reuse) the next one starts at 0.
  pool.clear();
  EXPECT_EQ(push(RecordKind::kSegBegin, ctx, 250), nullptr);
  closed = push(RecordKind::kSegEnd, ctx, 255);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->offset, 0u);
  EXPECT_EQ(closed->count, 0u);

  EXPECT_EQ(push(RecordKind::kSegBegin, ctx, 300), nullptr);
  try {
    seg.finish();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "segmenter: rank 4: trace ends inside an open segment");
  }
}

TEST(Segmenter, EmptySegmentsAreKept) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("empty", 5);
  w.segEnd("empty", 9);
  const SegmentedTrace st = segmentTrace(trace);
  ASSERT_EQ(st.ranks[0].size(), 1u);
  EXPECT_EQ(st.ranks[0][0].events.size(), 0u);
  EXPECT_EQ(st.ranks[0][0].end, 4);
}

/// One rank of `segments` "main.1" iterations, each two events long.
Trace loopTrace(int segments) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  for (int i = 0; i < segments; ++i) {
    const TimeUs base = 100 * i;
    w.segBegin("main.1", base);
    w.enter("do_work", OpKind::kCompute, base + 1);
    w.exit("do_work", base + 20 + i % 7);
    w.enter("MPI_Barrier", OpKind::kBarrier, base + 30);
    w.exit("MPI_Barrier", base + 40);
    w.segEnd("main.1", base + 50);
  }
  return trace;
}

// The rank's events land in one pool and its segments in one header array,
// each reserved up front: segmenting allocates per rank, never per segment,
// when the expected segment count (segmentTrace passes the previous rank's)
// is right. A wrong guess still gives the same segments.
TEST(Segmenter, AllocatesPerRankNotPerSegment) {
  const auto allocationsFor = [](int segments) {
    const Trace trace = loopTrace(segments);
    const auto count = static_cast<std::size_t>(segments);
    const std::size_t before = gNewCalls.load();
    const RankSegments segmented = segmentRank(trace.rank(0), trace.names(), count);
    const std::size_t allocations = gNewCalls.load() - before;
    EXPECT_EQ(segmented.size(), count);
    EXPECT_EQ(segmented.pool().size(), 2u * count);
    for (std::size_t guess : {std::size_t{0}, count / 2, 2 * count + 1})
      EXPECT_EQ(segmentRank(trace.rank(0), trace.names(), guess), segmented) << guess;
    return allocations;
  };
  const std::size_t few = allocationsFor(10);
  const std::size_t many = allocationsFor(10000);
  EXPECT_EQ(few, many);
  EXPECT_LE(many, 2u);
}

// Views read the pool in place: segment i's events are the pool's range
// starting where segment i-1's ended.
TEST(Segmenter, SegmentsAreViewsIntoOneRankPool) {
  const Trace trace = loopTrace(3);
  const RankSegments segs = segmentRank(trace.rank(0), trace.names(), 3);
  ASSERT_EQ(segs.size(), 3u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].events.data(), segs.pool().data() + 2 * i);
    EXPECT_EQ(segs[i].events.size(), 2u);
    EXPECT_EQ(segs[i].absStart, static_cast<TimeUs>(100 * i));
  }
  std::size_t visited = 0;
  for (const SegmentView seg : segs) EXPECT_EQ(seg, segs[visited++]);
  EXPECT_EQ(visited, 3u);
}

// A copy or a move owns its pool: it still equals the original once the
// source is gone, because equality compares the views, not addresses.
TEST(Segmenter, CopiesAndMovesOutliveTheirSource) {
  const Trace trace = figureOneTrace();
  const SegmentedTrace reference = segmentTrace(trace);
  auto source = std::make_unique<SegmentedTrace>(segmentTrace(trace));
  const SegmentedTrace copied = *source;
  SegmentedTrace assigned;
  assigned = std::move(*source);
  source.reset();
  EXPECT_EQ(copied, reference);
  EXPECT_EQ(assigned, reference);
  EXPECT_NE(copied.ranks[0].pool().data(), reference.ranks[0].pool().data());
}

// Equality is by value, whatever the pool layout: the same segments built
// one by one, or with a shared event range, compare equal; a changed
// measurement or rank id does not.
TEST(Segmenter, EqualityIgnoresPoolLayout) {
  const Trace trace = figureOneTrace();
  const RankSegments segmented = segmentRank(trace.rank(0), trace.names(), 0);

  RankSegments rebuilt;
  for (const SegmentView seg : segmented) rebuilt.push_back(seg);
  EXPECT_EQ(rebuilt, segmented);

  // The two "main.1" iterations have equal events; store them once.
  ASSERT_TRUE(std::ranges::equal(segmented[1].events, segmented[2].events));
  RankSegments shared;
  shared.push_back(segmented[0]);
  const std::size_t offset = shared.appendEvents(segmented[1].events);
  for (std::size_t i : {1u, 2u}) {
    const SegmentView s = segmented[i];
    shared.addShared({s.context, s.absStart, s.end, offset, s.events.size()});
  }
  shared.push_back(segmented[3]);
  EXPECT_EQ(shared, segmented);
  EXPECT_LT(shared.pool().size(), segmented.pool().size());

  RankSegments otherRank = rebuilt;
  otherRank.rank = 7;
  EXPECT_NE(otherRank, segmented);
  RankSegments shifted;
  for (const SegmentView seg : segmented) {
    SegmentView moved = seg;
    moved.end += 1;
    shifted.push_back(moved);
  }
  EXPECT_NE(shifted, segmented);
  EXPECT_THROW(shifted.addShared({0, 0, 0, shifted.pool().size(), 1}), std::out_of_range);
}

}  // namespace
}  // namespace tracered
