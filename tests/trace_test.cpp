// Unit tests for the trace data model: string table, writers, events,
// segments and their measurement vectors / signatures.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "trace/segment.hpp"
#include "trace/trace.hpp"
#include "test_helpers.hpp"

namespace tracered {
namespace {

TEST(StringTable, InternIsIdempotent) {
  StringTable t;
  const NameId a = t.intern("foo");
  const NameId b = t.intern("bar");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("foo"), a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(a), "foo");
  EXPECT_EQ(t.find("bar"), b);
  EXPECT_EQ(t.find("baz"), kInvalidName);
  EXPECT_EQ(t.name(12345), "<invalid>");
}

TEST(Trace, WriterAppendsRecords) {
  Trace trace(2);
  RankTraceWriter w(trace, 1);
  w.segBegin("init", 0);
  w.enter("MPI_Init", OpKind::kInit, 1);
  w.exit("MPI_Init", 10);
  w.segEnd("init", 11);
  EXPECT_EQ(trace.rank(1).records.size(), 4u);
  EXPECT_EQ(trace.rank(0).records.size(), 0u);
  EXPECT_EQ(trace.totalRecords(), 4u);
  EXPECT_EQ(trace.rank(1).records[1].kind, RecordKind::kEnter);
  EXPECT_EQ(trace.rank(1).records[1].op, OpKind::kInit);
}

TEST(Trace, WriterRejectsNonMonotonicTime) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("init", 10);
  EXPECT_THROW(w.segEnd("init", 5), std::logic_error);
}

TEST(Event, OpClassification) {
  EXPECT_TRUE(isNxN(OpKind::kBarrier));
  EXPECT_TRUE(isNxN(OpKind::kAlltoall));
  EXPECT_TRUE(isNxN(OpKind::kAllgather));
  EXPECT_TRUE(isNxN(OpKind::kAllreduce));
  EXPECT_FALSE(isNxN(OpKind::kGather));
  EXPECT_TRUE(isNto1(OpKind::kGather));
  EXPECT_TRUE(isNto1(OpKind::kReduce));
  EXPECT_TRUE(is1toN(OpKind::kBcast));
  EXPECT_TRUE(is1toN(OpKind::kScatter));
  EXPECT_TRUE(isCollective(OpKind::kInit));
  EXPECT_TRUE(isP2P(OpKind::kSsend));
  EXPECT_FALSE(isP2P(OpKind::kBcast));
  EXPECT_STREQ(opName(OpKind::kRecv), "MPI_Recv");
}

TEST(Event, SameIdentityChecksNameOpAndParams) {
  EventInterval a;
  a.name = 1;
  a.op = OpKind::kSend;
  a.msg.peer = 3;
  a.msg.tag = 0;
  EventInterval b = a;
  EXPECT_TRUE(a.sameIdentity(b));
  b.start = 99;  // timing does not affect identity
  EXPECT_TRUE(a.sameIdentity(b));
  b = a;
  b.msg.peer = 4;
  EXPECT_FALSE(a.sameIdentity(b));
  b = a;
  b.op = OpKind::kSsend;
  EXPECT_FALSE(a.sameIdentity(b));
}

TEST(Segment, CompatibleRequiresContextCountAndIdentity) {
  StringTable names;
  const Segment a = testing::makeSegment(names, "main.1", 0, 50,
                                         {{"do_work", OpKind::kCompute, 1, 20, {}}});
  Segment b = a;
  EXPECT_TRUE(a.view().compatible(b));
  b.events[0].end = 45;  // timing irrelevant
  EXPECT_TRUE(a.view().compatible(b));
  Segment other = testing::makeSegment(names, "main.2", 0, 50,
                                       {{"do_work", OpKind::kCompute, 1, 20, {}}});
  EXPECT_FALSE(a.view().compatible(other));
  Segment more = a;
  more.events.push_back(more.events[0]);
  EXPECT_FALSE(a.view().compatible(more));
}

TEST(Segment, SignatureAgreesWithCompatibility) {
  StringTable names;
  const Segment a = testing::makeSegment(names, "main.1", 0, 50,
                                         {{"do_work", OpKind::kCompute, 1, 20, {}}});
  Segment b = a;
  b.end = 77;
  b.events[0].start = 5;
  EXPECT_EQ(a.view().signature(), b.view().signature());
  Segment c = a;
  c.events[0].msg.tag = 9;
  EXPECT_NE(a.view().signature(), c.view().signature());
}

// The signature is a function of the segment's identity alone (context,
// event count, each event's name, op and message), and sees every part of
// it: one changed field, an added event or two swapped events move it.
TEST(Segment, SignatureSeesEveryIdentityFieldAndTheEventOrder) {
  StringTable names;
  MsgInfo m;
  m.peer = 3;
  m.tag = 11;
  m.root = 0;
  m.comm = 2;
  m.bytes = 4096;
  const Segment base = testing::makeSegment(
      names, "main.1", 0, 90,
      {{"do_work", OpKind::kCompute, 1, 20, {}},
       {"MPI_Send", OpKind::kSend, 21, 40, m},
       {"MPI_Recv", OpKind::kRecv, 41, 80, m}});
  const std::uint64_t sig = base.view().signature();

  Segment retimed = base;
  retimed.absStart = 1000;
  retimed.end = 95;
  for (EventInterval& e : retimed.events) {
    e.start += 2;
    e.end += 3;
  }
  EXPECT_EQ(retimed.view().signature(), sig);

  const std::vector<std::pair<std::string, std::function<void(Segment&)>>> changes = {
      {"context", [&](Segment& s) { s.context = names.intern("main.2"); }},
      {"event count", [](Segment& s) { s.events.push_back(s.events[0]); }},
      {"fewer events", [](Segment& s) { s.events.pop_back(); }},
      {"name", [&](Segment& s) { s.events[1].name = names.intern("MPI_Isend"); }},
      {"op", [](Segment& s) { s.events[1].op = OpKind::kSsend; }},
      {"peer", [](Segment& s) { s.events[1].msg.peer = 4; }},
      {"tag", [](Segment& s) { s.events[1].msg.tag = 12; }},
      {"root", [](Segment& s) { s.events[2].msg.root = -1; }},
      {"comm", [](Segment& s) { s.events[2].msg.comm = 3; }},
      {"bytes", [](Segment& s) { s.events[2].msg.bytes = 4097; }},
      {"swapped events", [](Segment& s) { std::swap(s.events[1], s.events[2]); }},
  };
  for (const auto& [what, change] : changes) {
    SCOPED_TRACE(what);
    Segment changed = base;
    change(changed);
    EXPECT_FALSE(changed.view().compatible(base));
    EXPECT_NE(changed.view().signature(), sig);
  }
}

TEST(Segment, ForEachMeasurementPairVisitsAllAndShortCircuits) {
  StringTable names;
  const Segment a = testing::makeSegment(
      names, "m", 0, 50,
      {{"f", OpKind::kCompute, 1, 20, {}}, {"g", OpKind::kCompute, 21, 49, {}}});
  const Segment b = a;
  int visits = 0;
  const bool all = forEachMeasurementPair(a, b, [&](double, double) {
    ++visits;
    return true;
  });
  EXPECT_TRUE(all);
  EXPECT_EQ(visits, 5);  // 2 events x (start,end) + segment end

  visits = 0;
  const bool none = forEachMeasurementPair(a, b, [&](double, double) {
    ++visits;
    return false;
  });
  EXPECT_FALSE(none);
  EXPECT_EQ(visits, 1);  // stops at the first failure
}

TEST(SegmentedTrace, Totals) {
  StringTable names;
  SegmentedTrace st;
  st.ranks.resize(2);
  st.ranks[0].push_back(testing::makeSegment(
      names, "m", 0, 10, {{"f", OpKind::kCompute, 1, 9, {}}}));
  st.ranks[1].push_back(testing::makeSegment(
      names, "m", 0, 10,
      {{"f", OpKind::kCompute, 1, 4, {}}, {"g", OpKind::kCompute, 5, 9, {}}}));
  EXPECT_EQ(st.totalSegments(), 2u);
  EXPECT_EQ(st.totalEvents(), 3u);
}

}  // namespace
}  // namespace tracered
