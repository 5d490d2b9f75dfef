// Tests for aggregate function profiles and the profile-distortion measure.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/profile.hpp"
#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "test_helpers.hpp"

namespace tracered::analysis {
namespace {

using tracered::testing::makeSegment;

TEST(FunctionStats, Accumulates) {
  FunctionStats st;
  st.add(10);
  st.add(30);
  st.add(20);
  EXPECT_EQ(st.count, 3u);
  EXPECT_DOUBLE_EQ(st.totalUs, 60.0);
  EXPECT_DOUBLE_EQ(st.meanUs(), 20.0);
  EXPECT_DOUBLE_EQ(st.minUs, 10.0);
  EXPECT_DOUBLE_EQ(st.maxUs, 30.0);
}

SegmentedTrace twoRankTrace(StringTable& names, TimeUs dur0, TimeUs dur1,
                            int rank0Segments = 4) {
  SegmentedTrace st;
  st.ranks.resize(2);
  for (int r = 0; r < 2; ++r) {
    st.ranks[static_cast<std::size_t>(r)].rank = r;
    for (int i = 0; i < (r == 0 ? rank0Segments : 4); ++i) {
      const TimeUs dur = r == 0 ? dur0 : dur1;
      st.ranks[static_cast<std::size_t>(r)].push_back(makeSegment(
          names, "m", 1000 * i, dur + 10, {{"f", OpKind::kCompute, 5, 5 + dur, {}}}, r));
    }
  }
  return st;
}

TEST(Profile, BuildsFromTrace) {
  StringTable names;
  const SegmentedTrace st = twoRankTrace(names, 100, 300);
  const Profile p = Profile::fromTrace(st);
  const NameId f = names.find("f");
  EXPECT_EQ(p.stats(f, 0).count, 4u);
  EXPECT_DOUBLE_EQ(p.stats(f, 0).totalUs, 400.0);
  EXPECT_DOUBLE_EQ(p.stats(f, 1).totalUs, 1200.0);
  EXPECT_DOUBLE_EQ(p.grandTotalUs(), 1600.0);
  EXPECT_EQ(p.stats(999, 0).count, 0u);  // absent cell
}

TEST(Profile, CompareIdenticalIsZero) {
  StringTable names;
  const Profile p = Profile::fromTrace(twoRankTrace(names, 100, 300));
  const ProfileDistortion d = compareProfiles(p, p);
  EXPECT_DOUBLE_EQ(d.maxTotalRelError, 0.0);
  EXPECT_DOUBLE_EQ(d.grandTotalRelError, 0.0);
  EXPECT_TRUE(d.countsPreserved);
}

TEST(Profile, CompareDetectsScaledTotals) {
  StringTable names;
  const Profile a = Profile::fromTrace(twoRankTrace(names, 100, 300));
  StringTable names2;
  const Profile b = Profile::fromTrace(twoRankTrace(names2, 150, 300));
  const ProfileDistortion d = compareProfiles(a, b);
  EXPECT_NEAR(d.maxTotalRelError, 0.5, 1e-9);     // rank-0 total off by 50 %
  EXPECT_NEAR(d.grandTotalRelError, 200.0 / 1600.0, 1e-9);
  EXPECT_TRUE(d.countsPreserved);
}

TEST(Profile, CompareDetectsCountLoss) {
  StringTable names;
  const Profile a = Profile::fromTrace(twoRankTrace(names, 100, 100));
  // The same trace with rank 0's last segment dropped.
  const Profile b = Profile::fromTrace(twoRankTrace(names, 100, 100, 3));
  EXPECT_FALSE(compareProfiles(a, b).countsPreserved);
}

TEST(Profile, ReductionPreservesCountsByConstruction) {
  // Any reduction policy preserves event counts (representatives are
  // compatible), so profile counts must survive every method.
  eval::WorkloadOptions opts;
  opts.scale = 0.1;
  const Trace trace = eval::runWorkload("late_sender", opts);
  const SegmentedTrace st = segmentTrace(trace);
  const Profile original = Profile::fromTrace(st);
  for (core::Method m : core::allMethods()) {
    auto policy = core::makeDefaultPolicy(m);
    const core::ReductionResult res = core::reduceTrace(st, trace.names(), *policy);
    const Profile rec = Profile::fromTrace(core::reconstruct(res.reduced));
    EXPECT_TRUE(compareProfiles(original, rec).countsPreserved) << core::methodName(m);
  }
}

TEST(Profile, IterAvgPreservesAggregatesWell) {
  // Averaging preserves per-cell totals almost exactly (sum of means ==
  // mean of sums within each signature group), even though its
  // per-timestamp error is among the worst — the Ratn-et-al. blind spot.
  eval::WorkloadOptions opts;
  opts.scale = 0.15;
  const Trace trace = eval::runWorkload("NtoN_1024", opts);
  const SegmentedTrace st = segmentTrace(trace);
  const Profile original = Profile::fromTrace(st);
  auto policy = core::makeDefaultPolicy(core::Method::kIterAvg);
  const core::ReductionResult res = core::reduceTrace(st, trace.names(), *policy);
  const Profile rec = Profile::fromTrace(core::reconstruct(res.reduced));
  const ProfileDistortion d = compareProfiles(original, rec);
  EXPECT_LT(d.grandTotalRelError, 0.05);
}

TEST(Profile, RenderMentionsTopFunction) {
  StringTable names;
  const Profile p = Profile::fromTrace(twoRankTrace(names, 100, 300));
  const std::string s = renderProfile(p, names, 3);
  EXPECT_NE(s.find("f"), std::string::npos);
  EXPECT_NE(s.find("count"), std::string::npos);
}

// ---- adversarial inputs: empty and degenerate traces must produce empty
// (not crashing, not NaN) profiles through every entry point.

TEST(Profile, EmptyTraceProfileIsEmptyAndRenderable) {
  const Profile p = Profile::fromTrace(SegmentedTrace{});
  EXPECT_TRUE(p.keys().empty());
  EXPECT_DOUBLE_EQ(p.grandTotalUs(), 0.0);
  // stats() of an absent cell is the defaulted zero struct, with a defined
  // mean.
  EXPECT_EQ(p.stats(0, 0).count, 0u);
  EXPECT_DOUBLE_EQ(p.stats(0, 0).meanUs(), 0.0);
  StringTable names;
  const std::string s = renderProfile(p, names, 10);
  EXPECT_NE(s.find("count"), std::string::npos);  // header renders, no rows
}

TEST(Profile, CompareAgainstEmptyOriginalIsFiniteAndNoiseFree) {
  StringTable names;
  const Profile empty = Profile::fromTrace(SegmentedTrace{});
  const Profile real = Profile::fromTrace(twoRankTrace(names, 100, 300));
  // Both directions: nothing to compare yields zero distortion; cells that
  // exist only on one side stay below the floor guard instead of dividing
  // by zero.
  const ProfileDistortion none = compareProfiles(empty, empty);
  EXPECT_DOUBLE_EQ(none.maxTotalRelError, 0.0);
  EXPECT_DOUBLE_EQ(none.grandTotalRelError, 0.0);
  EXPECT_TRUE(none.countsPreserved);
  const ProfileDistortion d = compareProfiles(real, empty);
  EXPECT_TRUE(std::isfinite(d.maxTotalRelError));
  EXPECT_TRUE(std::isfinite(d.meanTotalRelError));
  EXPECT_TRUE(std::isfinite(d.grandTotalRelError));
  EXPECT_FALSE(d.countsPreserved);
}

TEST(Profile, ZeroDurationEventsKeepFiniteStats) {
  StringTable names;
  const SegmentedTrace st = twoRankTrace(names, 0, 0);
  const Profile p = Profile::fromTrace(st);
  const NameId f = names.find("f");
  EXPECT_EQ(p.stats(f, 0).count, 4u);
  EXPECT_DOUBLE_EQ(p.stats(f, 0).totalUs, 0.0);
  EXPECT_DOUBLE_EQ(p.stats(f, 0).meanUs(), 0.0);
  const ProfileDistortion d = compareProfiles(p, p);
  EXPECT_DOUBLE_EQ(d.maxTotalRelError, 0.0);
  EXPECT_TRUE(d.countsPreserved);
}

}  // namespace
}  // namespace tracered::analysis
