// Tests for the reduction algorithm (Sec. 3.1) and reconstruction
// (Sec. 4.3.3): exec bookkeeping, degree-of-matching accounting, per-rank
// independence, exactness under strict thresholds.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "eval/workloads.hpp"
#include "test_helpers.hpp"
#include "trace/segmenter.hpp"

namespace tracered::core {
namespace {

using testing::makeSegment;

/// One rank with `n` near-identical "main.1" iterations (delta grows by
/// `step` per iteration) plus one "init" segment.
SegmentedTrace loopTrace(StringTable& names, int n, TimeUs step) {
  SegmentedTrace st;
  st.ranks.resize(1);
  st.ranks[0].rank = 0;
  st.ranks[0].push_back(
      makeSegment(names, "init", 0, 30, {{"MPI_Init", OpKind::kInit, 1, 29, {}}}));
  for (int i = 0; i < n; ++i) {
    const TimeUs d = step * i;
    st.ranks[0].push_back(makeSegment(
        names, "main.1", 100 + 1000 * i, 900 + d,
        {{"do_work", OpKind::kCompute, 1, 800 + d, {}}}));
  }
  return st;
}

TEST(Reducer, PermissivePolicyStoresOneRepresentativePerGroup) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 10, 1);
  AbsDiffPolicy policy(1e9);
  const ReductionResult res = reduceTrace(st, names, policy);
  ASSERT_EQ(res.reduced.ranks.size(), 1u);
  EXPECT_EQ(res.reduced.ranks[0].stored.size(), 2u);  // init + main.1
  EXPECT_EQ(res.reduced.ranks[0].execs.size(), 11u);
  EXPECT_EQ(res.stats.totalSegments, 11u);
  EXPECT_EQ(res.stats.matches, 9u);           // 10 loop iterations - 1 stored
  EXPECT_EQ(res.stats.possibleMatches, 9u);   // 11 - 2 groups
  EXPECT_DOUBLE_EQ(res.stats.degreeOfMatching(), 1.0);
}

TEST(Reducer, StrictPolicyStoresEverything) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 10, 50);
  AbsDiffPolicy policy(0);
  const ReductionResult res = reduceTrace(st, names, policy);
  EXPECT_EQ(res.reduced.ranks[0].stored.size(), 11u);
  EXPECT_EQ(res.stats.matches, 0u);
  EXPECT_DOUBLE_EQ(res.stats.degreeOfMatching(), 0.0);
}

TEST(Reducer, ExecsRecordOriginalStartTimes) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 3, 0);
  AbsDiffPolicy policy(1e9);
  const ReductionResult res = reduceTrace(st, names, policy);
  const auto& execs = res.reduced.ranks[0].execs;
  ASSERT_EQ(execs.size(), 4u);
  EXPECT_EQ(execs[0].start, 0);     // init
  EXPECT_EQ(execs[1].start, 100);
  EXPECT_EQ(execs[2].start, 1100);
  EXPECT_EQ(execs[3].start, 2100);
  // All three loop iterations reference the same representative.
  EXPECT_EQ(execs[1].id, execs[2].id);
  EXPECT_EQ(execs[2].id, execs[3].id);
}

TEST(Reducer, RanksAreReducedIndependently) {
  StringTable names;
  SegmentedTrace st;
  st.ranks.resize(2);
  for (int r = 0; r < 2; ++r) {
    st.ranks[static_cast<std::size_t>(r)].rank = r;
    for (int i = 0; i < 5; ++i) {
      st.ranks[static_cast<std::size_t>(r)].push_back(makeSegment(
          names, "main.1", 1000 * i, 900,
          {{"do_work", OpKind::kCompute, 1, 800, {}}}, r));
    }
  }
  AbsDiffPolicy policy(1e9);
  const ReductionResult res = reduceTrace(st, names, policy);
  // One representative per rank — reduction never matches across ranks.
  EXPECT_EQ(res.reduced.ranks[0].stored.size(), 1u);
  EXPECT_EQ(res.reduced.ranks[1].stored.size(), 1u);
  EXPECT_EQ(res.stats.storedSegments, 2u);
}

TEST(Reconstruct, RoundTripsExactlyWhenEverySegmentIsStored) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 8, 37);
  AbsDiffPolicy policy(0);  // store everything
  const ReductionResult res = reduceTrace(st, names, policy);
  const SegmentedTrace rec = reconstruct(res.reduced);
  ASSERT_EQ(rec.ranks.size(), st.ranks.size());
  for (std::size_t r = 0; r < st.ranks.size(); ++r) {
    ASSERT_EQ(rec.ranks[r].size(), st.ranks[r].size());
    for (std::size_t s = 0; s < st.ranks[r].size(); ++s) {
      const SegmentView a = st.ranks[r][s];
      const SegmentView b = rec.ranks[r][s];
      EXPECT_EQ(a.absStart, b.absStart);
      EXPECT_EQ(a.end, b.end);
      EXPECT_TRUE(std::ranges::equal(a.events, b.events));
    }
  }
}

TEST(Reconstruct, ReplaysRepresentativeTimings) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 4, 10);  // drifting durations
  AbsDiffPolicy policy(1e9);                          // everything matches
  const ReductionResult res = reduceTrace(st, names, policy);
  const SegmentedTrace rec = reconstruct(res.reduced);
  // Every loop iteration now carries the first iteration's measurements.
  const SegmentView first = rec.ranks[0][1];
  for (std::size_t s = 2; s < rec.ranks[0].size(); ++s) {
    EXPECT_TRUE(std::ranges::equal(rec.ranks[0][s].events, first.events));
    EXPECT_EQ(rec.ranks[0][s].end, first.end);
  }
  // But start times are the original ones.
  EXPECT_EQ(rec.ranks[0][3].absStart, st.ranks[0][3].absStart);
}

TEST(Reconstruct, RejectsDanglingExecIds) {
  ReducedTrace rt;
  RankReduced rr;
  rr.rank = 0;
  rr.execs.push_back({5, 0});  // no stored segment with id 5
  rt.ranks.push_back(std::move(rr));
  EXPECT_THROW(reconstruct(rt), std::out_of_range);
}

TEST(Reducer, IterAvgReducedTraceHoldsAverages) {
  StringTable names;
  const SegmentedTrace st = loopTrace(names, 3, 30);  // ends 900, 930, 960
  IterAvgPolicy policy;
  const ReductionResult res = reduceTrace(st, names, policy);
  const auto& stored = res.reduced.ranks[0].stored;
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored[1].end, 930);  // mean of 900/930/960
}

TEST(Reducer, DegreeOfMatchingWithMixedGroups) {
  StringTable names;
  SegmentedTrace st;
  st.ranks.resize(1);
  // 3 segments of group A (identical), 2 of group B (identical), interleaved.
  auto groupA = [&](TimeUs at) {
    return makeSegment(names, "A", at, 100, {{"f", OpKind::kCompute, 1, 99, {}}});
  };
  auto groupB = [&](TimeUs at) {
    return makeSegment(names, "B", at, 100, {{"g", OpKind::kCompute, 1, 99, {}}});
  };
  for (const Segment& s : {groupA(0), groupB(200), groupA(400), groupA(600), groupB(800)})
    st.ranks[0].push_back(s);
  AbsDiffPolicy permissive(1e9);
  const ReductionResult res = reduceTrace(st, names, permissive);
  EXPECT_EQ(res.stats.possibleMatches, 3u);  // 5 segments - 2 groups
  EXPECT_EQ(res.stats.matches, 3u);
  EXPECT_DOUBLE_EQ(res.stats.degreeOfMatching(), 1.0);

  AbsDiffPolicy strict(0);
  const ReductionResult res2 = reduceTrace(st, names, strict);
  EXPECT_EQ(res2.stats.matches, 3u);  // identical segments still match at 0
}

/// A small real workload reduced with the paper's default avgWave.
struct ReducedWorkload {
  Trace trace = eval::runWorkload("late_sender", {0.1, 42});
  SegmentedTrace segmented = segmentTrace(trace);
  ReductionResult result =
      reduceTrace(segmented, trace.names(), ReductionConfig::defaults(Method::kAvgWave));
};

// Reconstruction stamps each representative's events into its rank's pool
// once and points every exec's header at that range, so its memory grows
// with representatives plus execs, not with the expanded events.
TEST(Reconstruct, PoolHoldsEachRepresentativeOnce) {
  const ReducedWorkload w;
  const SegmentedTrace rec = reconstruct(w.result.reduced);
  ASSERT_EQ(rec.ranks.size(), w.result.reduced.ranks.size());
  std::size_t pooled = 0;
  for (std::size_t r = 0; r < rec.ranks.size(); ++r) {
    std::size_t stored = 0;
    for (const Segment& s : w.result.reduced.ranks[r].stored) stored += s.events.size();
    EXPECT_EQ(rec.ranks[r].pool().size(), stored) << "rank index " << r;
    pooled += rec.ranks[r].pool().size();
  }
  EXPECT_EQ(rec.totalEvents(), w.segmented.totalEvents());
  EXPECT_LT(pooled, rec.totalEvents());

  // The merged trace's ranks pool only the shared representatives they use.
  const MergeResult merged = mergeAcrossRanks(
      w.result.reduced, MergeOptions{ReductionConfig::defaults(Method::kAvgWave)});
  const SegmentedTrace mergedRec = reconstructMerged(merged.merged);
  ASSERT_EQ(mergedRec.ranks.size(), merged.merged.execs.size());
  for (std::size_t r = 0; r < mergedRec.ranks.size(); ++r) {
    std::set<SegmentId> used;
    for (const SegmentExec& e : merged.merged.execs[r]) used.insert(e.id);
    std::size_t events = 0;
    for (const SegmentId id : used) events += merged.merged.sharedStore[id].events.size();
    EXPECT_EQ(mergedRec.ranks[r].pool().size(), events) << "rank index " << r;
  }
  EXPECT_EQ(mergedRec.totalEvents(), w.segmented.totalEvents());
}

// Rendered back to records and segmented afresh, a reconstructed trace gets
// one pool range per segment instead of shared ones, yet compares equal:
// equality is by value, not by pool layout.
TEST(Reconstruct, ResegmentingTheRenderedTraceGivesTheSameSegments) {
  const ReducedWorkload w;
  const SegmentedTrace rec = reconstruct(w.result.reduced);
  const SegmentedTrace again = segmentTrace(desegmentTrace(rec, w.result.reduced.names));
  EXPECT_GT(again.ranks[0].pool().size(), rec.ranks[0].pool().size());
  EXPECT_EQ(again, rec);
}

}  // namespace
}  // namespace tracered::core
