// Tests for the EXPERT-like analyzer and the severity cube on hand-crafted
// traces with known waiting structure.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/render.hpp"
#include "analysis/report.hpp"
#include "analysis/severity.hpp"
#include "test_helpers.hpp"

namespace tracered::analysis {
namespace {

using tracered::testing::Ev;
using tracered::testing::makeSegment;

struct TwoRankTrace {
  StringTable names;
  SegmentedTrace st;
};

/// Rank 0 sends at t=1000 (enter), rank 1 posts its recv at t=100 and exits
/// at t=1020 (unless told otherwise): a 900 µs Late Sender wait.
TwoRankTrace lateSenderTrace(bool sync, TimeUs recvStart = 100, TimeUs recvEnd = 1020) {
  TwoRankTrace t;
  t.st.ranks.resize(2);
  t.st.ranks[0].rank = 0;
  t.st.ranks[1].rank = 1;
  MsgInfo toOne;
  toOne.peer = 1;
  toOne.tag = 5;
  toOne.bytes = 64;
  toOne.comm = 0;
  MsgInfo fromZero = toOne;
  fromZero.peer = 0;
  t.st.ranks[0].push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 1000, {}},
       {sync ? "MPI_Ssend" : "MPI_Send", sync ? OpKind::kSsend : OpKind::kSend, 1000,
        1010, toOne}},
      0));
  t.st.ranks[1].push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 100, {}},
       {"MPI_Recv", OpKind::kRecv, recvStart, recvEnd, fromZero}},
      1));
  return t;
}

TEST(Analyzer, DetectsLateSender) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const NameId recv = t.names.find("MPI_Recv");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateSender, recv), 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateSender, recv)[1], 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateSender, recv)[0], 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kLateReceiver), 0.0);
}

TEST(Analyzer, DetectsLateReceiverForSsendOnly) {
  // Flip the roles: receiver enters at 1000, sync sender at 100.
  TwoRankTrace t;
  t.st.ranks.resize(2);
  t.st.ranks[0].rank = 0;
  t.st.ranks[1].rank = 1;
  MsgInfo toOne;
  toOne.peer = 1;
  toOne.tag = 5;
  toOne.bytes = 64;
  toOne.comm = 0;
  MsgInfo fromZero = toOne;
  fromZero.peer = 0;
  t.st.ranks[0].push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 100, {}},
       {"MPI_Ssend", OpKind::kSsend, 100, 1020, toOne}},
      0));
  t.st.ranks[1].push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 1000, {}},
       {"MPI_Recv", OpKind::kRecv, 1000, 1030, fromZero}},
      1));
  const SeverityCube cube = analyze(t.st);
  const NameId ssend = t.names.find("MPI_Ssend");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateReceiver, ssend), 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateReceiver, ssend)[0], 900.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kLateSender), 0.0);
}

TEST(Analyzer, LateSenderWaitClampedToRecvDuration) {
  // Shrink the receive so the raw wait (900) exceeds its duration (20).
  const TwoRankTrace t = lateSenderTrace(false, 990, 1010);
  const SeverityCube cube = analyze(t.st);
  const NameId recv = t.names.find("MPI_Recv");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateSender, recv), 10.0);
}

/// Four ranks entering a collective at staggered times.
TwoRankTrace staggeredCollective(OpKind op, const char* fn, Rank root) {
  TwoRankTrace t;
  t.st.ranks.resize(4);
  for (int r = 0; r < 4; ++r) {
    t.st.ranks[static_cast<std::size_t>(r)].rank = r;
    MsgInfo m;
    m.root = root;
    m.comm = 0;
    m.bytes = 32;
    const TimeUs enter = 100 + 200 * r;  // rank 3 enters last at 700
    t.st.ranks[static_cast<std::size_t>(r)].push_back(makeSegment(
        t.names, "main.1", 0, 1000,
        {{"do_work", OpKind::kCompute, 0, enter, {}},
         {fn, op, enter, 750, m}},
        r));
  }
  return t;
}

TEST(Analyzer, WaitAtBarrierMeasuresEnterSkew) {
  const TwoRankTrace t = staggeredCollective(OpKind::kBarrier, "MPI_Barrier", -1);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Barrier");
  const auto profile = cube.profile(Metric::kWaitAtBarrier, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);  // entered at 100, last at 700
  EXPECT_DOUBLE_EQ(profile[1], 400.0);
  EXPECT_DOUBLE_EQ(profile[2], 200.0);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kWaitAtNxN), 0.0);
}

TEST(Analyzer, AlltoallGoesToWaitAtNxN) {
  const TwoRankTrace t = staggeredCollective(OpKind::kAlltoall, "MPI_Alltoall", -1);
  const SeverityCube cube = analyze(t.st);
  EXPECT_GT(cube.metricTotal(Metric::kWaitAtNxN), 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kWaitAtBarrier), 0.0);
}

TEST(Analyzer, EarlyReduceChargedToEarlyRoot) {
  // Root (rank 0) enters at 100; the last sender arrives at 700, so the
  // root's blocking time is 600 µs.
  const TwoRankTrace t = staggeredCollective(OpKind::kGather, "MPI_Gather", 0);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Gather");
  const auto profile = cube.profile(Metric::kEarlyReduce, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);
  EXPECT_DOUBLE_EQ(profile[1], 0.0);
}

TEST(Analyzer, NoEarlyReduceWhenRootIsLate) {
  // Root = rank 3 (enters last): no early-reduce wait.
  const TwoRankTrace t = staggeredCollective(OpKind::kGather, "MPI_Gather", 3);
  const SeverityCube cube = analyze(t.st);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kEarlyReduce), 0.0);
}

TEST(Analyzer, LateBroadcastChargedToWaitingNonRoots) {
  // Root = rank 3 enters at 700; ranks 0..2 waited since 100/300/500.
  const TwoRankTrace t = staggeredCollective(OpKind::kBcast, "MPI_Bcast", 3);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Bcast");
  const auto profile = cube.profile(Metric::kLateBroadcast, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);
  EXPECT_DOUBLE_EQ(profile[1], 400.0);
  EXPECT_DOUBLE_EQ(profile[2], 200.0);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);
}

TEST(Analyzer, ExecutionTimeAccumulatesInclusive) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const NameId work = t.names.find("do_work");
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kExecutionTime, work)[0], 1000.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kExecutionTime, work)[1], 100.0);
}

TEST(Cube, DominantWaitPicksLargestCell) {
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, 1, 0, 50.0);
  cube.add(Metric::kWaitAtNxN, 2, 1, 500.0);
  const CubeCell dom = cube.dominantWait();
  EXPECT_EQ(dom.metric, Metric::kWaitAtNxN);
  EXPECT_EQ(dom.callsite, 2u);
  EXPECT_DOUBLE_EQ(dom.total(), 500.0);
}

TEST(Cube, DominantWaitIgnoresExecutionTime) {
  SeverityCube cube(2);
  cube.add(Metric::kExecutionTime, 1, 0, 5000.0);
  cube.add(Metric::kLateSender, 2, 1, 10.0);
  EXPECT_EQ(cube.dominantWait().metric, Metric::kLateSender);
}

TEST(Cube, EmptyCubeHasNoDominant) {
  SeverityCube cube(4);
  EXPECT_EQ(cube.dominantWait().callsite, kInvalidName);
}

TEST(Cube, DiffIsSignedAndAligned) {
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, 1, 0, 100.0);
  b.add(Metric::kLateSender, 1, 0, 140.0);
  b.add(Metric::kWaitAtNxN, 2, 1, 30.0);
  const SeverityCube d = a.diff(b);
  EXPECT_DOUBLE_EQ(d.total(Metric::kLateSender, 1), -40.0);
  EXPECT_DOUBLE_EQ(d.total(Metric::kWaitAtNxN, 2), -30.0);
}

TEST(Cube, DiffRejectsRankMismatch) {
  SeverityCube a(2), b(3);
  EXPECT_THROW(a.diff(b), std::invalid_argument);
}

TEST(Render, ProfileDigitsScale) {
  const std::string s = renderProfile({0.0, 450.0, 900.0}, 900.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], '.');
  EXPECT_EQ(s[1], '5');
  EXPECT_EQ(s[2], '9');
}

TEST(Render, CubeRenderingMentionsTopCells) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const std::string s = renderCube(cube, t.names, 5);
  EXPECT_NE(s.find("LS"), std::string::npos);
  EXPECT_NE(s.find("MPI_Recv"), std::string::npos);
}

// ---- adversarial inputs: the renderers and report builders must be total
// on anything analyze() can produce, including the degenerate cubes.

TEST(Render, EmptyCubeRendersHeaderOnly) {
  const SeverityCube empty(0);
  StringTable names;
  const std::string s = renderCube(empty, names, 12);
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_EQ(s.find("LS"), std::string::npos);
  EXPECT_TRUE(renderProfile({}, 0.0).empty());
}

TEST(Render, ZeroRankCubeAndUnknownCallsiteChartRowsAreSafe) {
  const SeverityCube empty(0);
  StringTable names;
  const std::string chart =
      renderChart(empty, empty, names, {{Metric::kLateSender, "no_such_fn"}}, "x");
  EXPECT_NE(chart.find("no_such_fn"), std::string::npos);
}

TEST(Render, AllInsignificantCellsRenderCollapsedDigits) {
  // A zero per-rank maximum means scale <= 0: positive values render '?'
  // (off-scale), zeros render '.'; no division happens.
  EXPECT_EQ(renderProfile({0.0, 1.0, 0.0}, 0.0), ".?.");
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, 0, 0, 0.0);
  cube.add(Metric::kLateSender, 0, 1, 0.0);
  StringTable names;
  names.intern("f");
  const std::string s = renderCube(cube, names, 4);
  EXPECT_NE(s.find("[..]"), std::string::npos) << s;
}

TEST(Analyzer, EmptyTraceYieldsEmptyCube) {
  const SeverityCube cube = analyze(SegmentedTrace{});
  EXPECT_EQ(cube.numRanks(), 0);
  EXPECT_TRUE(cube.cells().empty());
  EXPECT_EQ(cube.dominantWait().callsite, kInvalidName);
}

TEST(Report, CubeRowsAreOrderedAndCapped) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const auto all = cubeReportRows(cube, t.names, 0);
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i - 1].totalUs, all[i].totalUs);
  const auto top1 = cubeReportRows(cube, t.names, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].totalUs, all[0].totalUs);
  EXPECT_TRUE(cubeReportRows(SeverityCube(0), t.names, 12).empty());
}

TEST(Report, DeltaRowsAlignByNameAndFlagWaitRegressions) {
  // Two runs interning names in opposite orders: the delta must align
  // MPI_Recv with MPI_Recv by name, not by NameId.
  StringTable namesA, namesB;
  const NameId recvA = namesA.intern("MPI_Recv");
  const NameId workA = namesA.intern("do_work");
  const NameId workB = namesB.intern("do_work");
  const NameId recvB = namesB.intern("MPI_Recv");
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, recvA, 0, 10000.0);
  a.add(Metric::kExecutionTime, workA, 0, 50000.0);
  b.add(Metric::kLateSender, recvB, 0, 40000.0);  // 4x worse: regression
  b.add(Metric::kExecutionTime, workB, 0, 90000.0);  // grows, but never flagged
  const auto rows = deltaReportRows(a, namesA, b, namesB, {0.25, 1000.0});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].callsite, "do_work");  // biggest |delta| first
  EXPECT_FALSE(rows[0].regression);
  EXPECT_EQ(rows[1].callsite, "MPI_Recv");
  EXPECT_EQ(rows[1].metric, Metric::kLateSender);
  EXPECT_DOUBLE_EQ(rows[1].baselineUs, 10000.0);
  EXPECT_DOUBLE_EQ(rows[1].candidateUs, 40000.0);
  EXPECT_TRUE(rows[1].regression);
}

TEST(Report, DeltaRowsDropInsignificantCellsAndRejectRankMismatch) {
  StringTable names;
  const NameId f = names.intern("f");
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, f, 0, 10.0);
  b.add(Metric::kLateSender, f, 0, 900.0);  // both below the 1000 µs floor
  EXPECT_TRUE(deltaReportRows(a, names, b, names).empty());
  const SeverityCube c(3);
  EXPECT_THROW(deltaReportRows(a, names, c, names), std::invalid_argument);
}

TEST(Report, RemapCallsitesRekeysByName) {
  StringTable from, to;
  const NameId fFrom = from.intern("f");
  to.intern("other");
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, fFrom, 1, 123.0);
  const SeverityCube mapped = remapCallsites(cube, from, to);
  const NameId fTo = to.find("f");
  ASSERT_NE(fTo, kInvalidName);
  EXPECT_NE(fTo, fFrom);
  EXPECT_DOUBLE_EQ(mapped.total(Metric::kLateSender, fTo), 123.0);
  EXPECT_DOUBLE_EQ(mapped.profile(Metric::kLateSender, fTo)[1], 123.0);
}

}  // namespace
}  // namespace tracered::analysis
