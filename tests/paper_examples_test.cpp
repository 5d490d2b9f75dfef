// End-to-end validation of every worked example in the paper (Sec. 3.2,
// Figs. 2 and 3): these pin the exact semantics of the similarity metrics.
#include <gtest/gtest.h>

#include "core/methods.hpp"
#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "trace/segment.hpp"
#include "test_helpers.hpp"

namespace tracered::core {
namespace {

using testing::fig2;
using testing::Fig2Segments;

TEST(PaperExamples, DistanceVectorsMatchFig2) {
  const Fig2Segments f = fig2();
  EXPECT_EQ(distanceVector(f.s2), (std::vector<double>{49, 1, 17, 18, 48}));
  EXPECT_EQ(distanceVector(f.s1), (std::vector<double>{51, 1, 40, 41, 50}));
  EXPECT_EQ(distanceVector(f.s0), (std::vector<double>{50, 1, 20, 21, 49}));
}

TEST(PaperExamples, RelDiffValues) {
  // "x1=17 and x2=40, giving a relative difference of 0.58"
  EXPECT_NEAR(RelDiffPolicy::relDiff(17, 40), 0.575, 1e-9);
  // "no differences are greater than 0.15 (x1=17, x2=20)"
  EXPECT_NEAR(RelDiffPolicy::relDiff(17, 20), 0.15, 1e-9);
  // "events that start at times 1 and 2" -> 0.5
  EXPECT_NEAR(RelDiffPolicy::relDiff(1, 2), 0.5, 1e-9);
  // "events that start at 100 and 125" -> 0.2
  EXPECT_NEAR(RelDiffPolicy::relDiff(100, 125), 0.2, 1e-9);
}

TEST(PaperExamples, RelDiffMatchingAtThresholdHalf) {
  const Fig2Segments f = fig2();
  RelDiffPolicy policy(0.5);
  SegmentStore store;
  const SegmentId id1 = store.add(f.s1);
  policy.onStored(store.segment(id1), id1);
  // s2 vs s1: do_work end 17 vs 40 -> 0.575 > 0.5 -> no match.
  EXPECT_FALSE(testing::tryMatch(policy, f.s2, store).has_value());
  const SegmentId id0 = store.add(f.s0);
  policy.onStored(store.segment(id0), id0);
  // s2 vs s0: all relative differences <= 0.15 -> match.
  const auto match = testing::tryMatch(policy, f.s2, store);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, id0);
}

TEST(PaperExamples, AbsDiffMatchingAtThreshold20) {
  const Fig2Segments f = fig2();
  AbsDiffPolicy policy(20);
  SegmentStore store;
  store.add(f.s1);
  // "s2 will not match s1, because the end times of do_work are 23 time
  //  units apart"
  EXPECT_FALSE(testing::tryMatch(policy, f.s2, store).has_value());
  const SegmentId id0 = store.add(f.s0);
  // "there are no differences larger than 3 between s2 and s0"
  const auto match = testing::tryMatch(policy, f.s2, store);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, id0);
}

TEST(PaperExamples, MinkowskiDistancesS2VsS1) {
  const Fig2Segments f = fig2();
  const auto v2 = distanceVector(f.s2);
  const auto v1 = distanceVector(f.s1);
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kManhattan, v2, v1), 50.0);
  EXPECT_NEAR(MinkowskiPolicy::distance(MinkowskiPolicy::Order::kEuclidean, v2, v1),
              32.65, 0.01);  // paper: 32.6
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kChebyshev, v2, v1), 23.0);
}

TEST(PaperExamples, MinkowskiDistancesS2VsS0) {
  const Fig2Segments f = fig2();
  const auto v2 = distanceVector(f.s2);
  const auto v0 = distanceVector(f.s0);
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kManhattan, v2, v0), 8.0);
  EXPECT_NEAR(MinkowskiPolicy::distance(MinkowskiPolicy::Order::kEuclidean, v2, v0),
              4.47, 0.01);  // paper: 4.5
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kChebyshev, v2, v0), 3.0);
}

// "If we choose a threshold of 0.2, then the highest the computed distance
//  can be for a match is 10.2, so s2 and s1 will not match using any of the
//  Minkowski distances ... The maximum value in the two vectors [s2,s0] is
//  50, so the highest the distances can be for a match is 10. This means
//  that s2 would match s0 for each of these distance metrics."
TEST(PaperExamples, MinkowskiMatchingAtThreshold02) {
  const Fig2Segments f = fig2();
  for (const auto order :
       {MinkowskiPolicy::Order::kManhattan, MinkowskiPolicy::Order::kEuclidean,
        MinkowskiPolicy::Order::kChebyshev}) {
    MinkowskiPolicy policy(order, 0.2);
    SegmentStore store;
    store.add(f.s1);
    EXPECT_FALSE(testing::tryMatch(policy, f.s2, store).has_value());
    const SegmentId id0 = store.add(f.s0);
    const auto match = testing::tryMatch(policy, f.s2, store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, id0);
  }
}

// Fig. 3: s0 and s2 match under avgWave at threshold 0.2 (distance ~1.9 vs
// allowed 3.5).
TEST(PaperExamples, WaveletMatchingAtThreshold02) {
  const Fig2Segments f = fig2();
  WaveletPolicy policy(WaveletPolicy::Kind::kAverage, 0.2);
  policy.beginRank();
  SegmentStore store;
  const SegmentId id0 = store.add(f.s0);
  policy.onStored(store.segment(id0), id0);
  const auto match = testing::tryMatch(policy, f.s2, store);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, id0);
}

TEST(PaperExamples, WaveletVectorLayout) {
  const Fig2Segments f = fig2();
  EXPECT_EQ(waveletVector(f.s0), (std::vector<double>{0, 1, 20, 21, 49, 50}));
}

// iter_k with k=3 keeps all three Fig. 2 segments; with k=2 the third
// execution matches (and is recorded against the most recent copy).
TEST(PaperExamples, IterKKeepsKCopies) {
  const Fig2Segments f = fig2();
  {
    IterKPolicy policy(3);
    SegmentStore store;
    EXPECT_FALSE(testing::tryMatch(policy, f.s0, store).has_value());
    store.add(f.s0);
    EXPECT_FALSE(testing::tryMatch(policy, f.s1, store).has_value());
    store.add(f.s1);
    EXPECT_FALSE(testing::tryMatch(policy, f.s2, store).has_value());
  }
  {
    IterKPolicy policy(2);
    SegmentStore store;
    store.add(f.s0);
    const SegmentId id1 = store.add(f.s1);
    const auto match = testing::tryMatch(policy, f.s2, store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, id1);  // the last stored copy fills in
  }
}

// iter_avg keeps a single representative holding the running average of s0,
// s1, s2's measurements.
TEST(PaperExamples, IterAvgAverages) {
  const Fig2Segments f = fig2();
  IterAvgPolicy policy;
  policy.beginRank();
  SegmentStore store;
  ASSERT_FALSE(testing::tryMatch(policy, f.s0, store).has_value());
  const SegmentId id = store.add(f.s0);
  policy.onStored(store.segment(id), id);
  EXPECT_TRUE(testing::tryMatch(policy, f.s1, store).has_value());
  EXPECT_TRUE(testing::tryMatch(policy, f.s2, store).has_value());
  policy.finishRank(store);
  ASSERT_EQ(store.size(), 1u);
  const Segment& avg = store.segment(id);
  // do_work end: (20+40+17)/3 = 25.67 -> 26
  EXPECT_EQ(avg.events[0].end, 26);
  // segment end: (50+51+49)/3 = 50
  EXPECT_EQ(avg.end, 50);
}

}  // namespace
}  // namespace tracered::core
