// Tests for the cross-rank representative merging extension.
#include <gtest/gtest.h>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "eval/evaluation.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"

#include "test_helpers.hpp"

namespace tracered::core {
namespace {

using tracered::testing::mergeAcrossRanks;

eval::WorkloadOptions tiny() {
  eval::WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

ReducedTrace reduceWith(const Trace& trace, Method m) {
  auto policy = makeDefaultPolicy(m);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;
}

TEST(CrossRank, MergesSpmdRepresentatives) {
  // imbalance_at_mpi_barrier: every rank runs the same code with different
  // work volumes; contexts and event identities agree across ranks, so a
  // permissive merge collapses the 8 per-rank stores substantially.
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", tiny());
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  AbsDiffPolicy permissive(1e9);
  MergeStats stats;
  const MergedReducedTrace merged = mergeAcrossRanks(reduced, permissive, &stats);
  EXPECT_EQ(stats.inputRepresentatives, reduced.totalStored());
  EXPECT_LT(stats.mergedRepresentatives, stats.inputRepresentatives);
  EXPECT_LE(stats.mergeRatio(), 0.6);
  EXPECT_EQ(merged.totalExecs(), reduced.totalExecs());
}

TEST(CrossRank, StrictPolicyMergesNothing) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  const ReducedTrace reduced = reduceWith(trace, Method::kEuclidean);
  AbsDiffPolicy strict(0);
  MergeStats stats;
  const MergedReducedTrace merged = mergeAcrossRanks(reduced, strict, &stats);
  // Bit-identical representatives across ranks are still merged; everything
  // else is kept. Either way reconstruction must stay total.
  EXPECT_GE(stats.mergedRepresentatives, 1u);
  EXPECT_EQ(merged.totalExecs(), reduced.totalExecs());
}

TEST(CrossRank, ReconstructionIsStructurallyExact) {
  const Trace trace = eval::runWorkload("1to1r_32", tiny());
  const SegmentedTrace original = segmentTrace(trace);
  const ReducedTrace reduced = reduceWith(trace, Method::kManhattan);
  AbsDiffPolicy merge(500);
  const MergedReducedTrace merged = mergeAcrossRanks(reduced, merge, nullptr);
  const SegmentedTrace rec = reconstructMerged(merged);
  ASSERT_EQ(rec.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < rec.ranks.size(); ++r) {
    ASSERT_EQ(rec.ranks[r].size(), original.ranks[r].size());
    for (std::size_t s = 0; s < rec.ranks[r].size(); ++s) {
      EXPECT_TRUE(rec.ranks[r][s].compatible(original.ranks[r][s]));
      EXPECT_EQ(rec.ranks[r][s].absStart,
                original.ranks[r][s].absStart);
    }
  }
}

TEST(CrossRank, MergedFileIsSmallerThanPerRankFile) {
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", tiny());
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  AbsDiffPolicy permissive(1e6);
  const MergedReducedTrace merged = mergeAcrossRanks(reduced, permissive, nullptr);
  EXPECT_LT(mergedTraceSize(merged), reducedTraceSize(reduced));
}

TEST(CrossRank, ApproximationErrorStaysBoundedUnderTightMerge) {
  // Merging with a tight absDiff bound may swap a rank's representative for
  // a peer's, but every substituted measurement is within the bound, so the
  // added approximation error is bounded by it too.
  const Trace trace = eval::runWorkload("NtoN_32", tiny());
  const SegmentedTrace original = segmentTrace(trace);
  const ReducedTrace reduced = reduceWith(trace, Method::kAbsDiff);
  const double before = eval::approximationDistance(original, reconstruct(reduced));
  AbsDiffPolicy merge(200);
  const MergedReducedTrace merged = mergeAcrossRanks(reduced, merge, nullptr);
  const double after = eval::approximationDistance(original, reconstructMerged(merged));
  EXPECT_LE(after, before + 200.0 + 1.0);
}

TEST(CrossRank, EarlierRanksWinFirstMatch) {
  // Build a two-rank reduced trace by hand: identical representative on both
  // ranks; the shared store must keep rank 0's copy only.
  ReducedTrace rt;
  const NameId ctx = rt.names.intern("main.1");
  const NameId fn = rt.names.intern("do_work");
  for (int r = 0; r < 2; ++r) {
    RankReduced rr;
    rr.rank = r;
    Segment s;
    s.context = ctx;
    s.rank = r;
    s.end = 100 + r;  // 1 µs apart
    EventInterval e;
    e.name = fn;
    e.start = 1;
    e.end = 99 + r;
    s.events.push_back(e);
    rr.stored.push_back(s);
    rr.execs.push_back({0, 1000});
    rt.ranks.push_back(std::move(rr));
  }
  AbsDiffPolicy merge(10);
  const MergedReducedTrace merged = mergeAcrossRanks(rt, merge, nullptr);
  ASSERT_EQ(merged.sharedStore.size(), 1u);
  EXPECT_EQ(merged.sharedStore[0].end, 100);  // rank 0's measurements
  EXPECT_EQ(merged.execs[1][0].id, 0u);
}

TEST(CrossRank, SparseRankIdsSurviveMergeAndReconstruction) {
  // Sparse rank ids (as a streaming ReductionSession produces) must not be
  // relabeled positionally by the merge/reconstruct pair.
  ReducedTrace rt;
  const NameId ctx = rt.names.intern("main.1");
  for (Rank rank : {Rank(3), Rank(1024)}) {
    RankReduced rr;
    rr.rank = rank;
    Segment s;
    s.context = ctx;
    s.rank = rank;
    s.end = 50;
    rr.stored.push_back(s);
    rr.execs.push_back({0, 10});
    rt.ranks.push_back(std::move(rr));
  }
  AbsDiffPolicy permissive(1e9);
  const MergedReducedTrace merged = mergeAcrossRanks(rt, permissive, nullptr);
  ASSERT_EQ(merged.rankIds.size(), 2u);
  EXPECT_EQ(merged.rankIds[0], 3);
  EXPECT_EQ(merged.rankIds[1], 1024);

  const SegmentedTrace rec = reconstructMerged(merged);
  ASSERT_EQ(rec.ranks.size(), 2u);
  EXPECT_EQ(rec.ranks[0].rank, 3);
  EXPECT_EQ(rec.ranks[1].rank, 1024);
  ASSERT_EQ(rec.ranks[1].size(), 1u);
  EXPECT_EQ(rec.ranks[1][0].rank, 1024);
}

}  // namespace
}  // namespace tracered::core
