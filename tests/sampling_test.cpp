// Tests for the trace-sampling policies (the paper's future-work methods).
#include <gtest/gtest.h>

#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "core/sampling.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "test_helpers.hpp"

namespace tracered::core {
namespace {

using testing::makeSegment;

Segment iter(StringTable& names, TimeUs delta) {
  return makeSegment(names, "main.1", 0, 1000 + delta,
                     {{"do_work", OpKind::kCompute, 2, 990 + delta, {}}});
}

TEST(PeriodicSampling, KeepsEveryKth) {
  StringTable names;
  PeriodicSamplingPolicy policy(3);
  policy.beginRank();
  SegmentStore store;
  int stored = 0;
  for (int i = 0; i < 9; ++i) {
    const Segment s = iter(names, i);
    if (auto m = testing::tryMatch(policy, s, store)) {
      // Matched against the most recently kept representative.
      EXPECT_EQ(*m, store.size() - 1);
    } else {
      store.add(s);
      ++stored;
      EXPECT_EQ(i % 3, 0) << "sampled at wrong position";
    }
  }
  EXPECT_EQ(stored, 3);  // i = 0, 3, 6
}

TEST(PeriodicSampling, KOneKeepsEverything) {
  StringTable names;
  PeriodicSamplingPolicy policy(1);
  policy.beginRank();
  SegmentStore store;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(testing::tryMatch(policy, iter(names, i), store).has_value());
    store.add(iter(names, i));
  }
}

TEST(PeriodicSampling, CountersAreSignatureLocal) {
  StringTable names;
  PeriodicSamplingPolicy policy(2);
  policy.beginRank();
  SegmentStore store;
  auto other = [&](TimeUs d) {
    return makeSegment(names, "main.2", 0, 500 + d,
                       {{"g", OpKind::kCompute, 1, 490 + d, {}}});
  };
  // Interleaved signatures each get their own every-2nd schedule.
  EXPECT_FALSE(testing::tryMatch(policy, iter(names, 0), store).has_value());
  store.add(iter(names, 0));
  EXPECT_FALSE(testing::tryMatch(policy, other(0), store).has_value());
  store.add(other(0));
  EXPECT_TRUE(testing::tryMatch(policy, iter(names, 1), store).has_value());
  EXPECT_TRUE(testing::tryMatch(policy, other(1), store).has_value());
  EXPECT_FALSE(testing::tryMatch(policy, iter(names, 2), store).has_value());
}

TEST(RandomSampling, ProbabilityOneKeepsEverything) {
  StringTable names;
  RandomSamplingPolicy policy(1.0, 42);
  policy.beginRank();
  SegmentStore store;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(testing::tryMatch(policy, iter(names, i), store).has_value());
    store.add(iter(names, i));
  }
}

TEST(RandomSampling, ProbabilityZeroKeepsOnlyFirst) {
  StringTable names;
  RandomSamplingPolicy policy(0.0, 42);
  policy.beginRank();
  SegmentStore store;
  EXPECT_FALSE(testing::tryMatch(policy, iter(names, 0), store).has_value());
  store.add(iter(names, 0));
  for (int i = 1; i < 10; ++i)
    EXPECT_TRUE(testing::tryMatch(policy, iter(names, i), store).has_value());
}

TEST(RandomSampling, RateApproximatesP) {
  StringTable names;
  RandomSamplingPolicy policy(0.3, 7);
  policy.beginRank();
  SegmentStore store;
  int stored = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Segment s = iter(names, i % 37);
    if (testing::tryMatch(policy, s, store).has_value()) continue;
    store.add(s);
    ++stored;
  }
  EXPECT_NEAR(static_cast<double>(stored) / n, 0.3, 0.05);
}

TEST(RandomSampling, DeterministicAcrossRuns) {
  StringTable names;
  for (int rep = 0; rep < 2; ++rep) {
    // fresh policies with the same seed make identical decisions
    RandomSamplingPolicy a(0.5, 99), b(0.5, 99);
    a.beginRank();
    b.beginRank();
    SegmentStore sa, sb;
    for (int i = 0; i < 100; ++i) {
      const Segment s = iter(names, i);
      const bool ka = !testing::tryMatch(a, s, sa).has_value();
      const bool kb = !testing::tryMatch(b, s, sb).has_value();
      ASSERT_EQ(ka, kb) << "decision diverged at " << i;
      if (ka) {
        sa.add(s);
        sb.add(s);
      }
    }
  }
}

TEST(Sampling, EndToEndThroughReducerAndReconstruction) {
  eval::WorkloadOptions opts;
  opts.scale = 0.1;
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", opts);
  const SegmentedTrace st = segmentTrace(trace);

  PeriodicSamplingPolicy periodic(5);
  const ReductionResult res = reduceTrace(st, trace.names(), periodic);
  // Roughly every 5th segment kept.
  EXPECT_LT(res.stats.storedSegments, st.totalSegments() / 3);
  EXPECT_GT(res.stats.storedSegments, st.totalSegments() / 8);
  const SegmentedTrace rec = reconstruct(res.reduced);
  EXPECT_EQ(rec.totalSegments(), st.totalSegments());
}

TEST(Sampling, PeriodicBeatsRandomAtEqualBudgetOnDrift) {
  // On a drifting workload (dyn_load_balance), periodic sampling spreads its
  // samples across the drift cycle, so reconstruction error should not be
  // wildly worse than random sampling at the same retention rate. This is a
  // sanity check of the harness rather than a strong ordering claim.
  eval::WorkloadOptions opts;
  opts.scale = 0.1;
  const Trace trace = eval::runWorkload("dyn_load_balance", opts);
  const SegmentedTrace st = segmentTrace(trace);

  PeriodicSamplingPolicy periodic(4);
  RandomSamplingPolicy random(0.25, 3);
  const ReductionResult a = reduceTrace(st, trace.names(), periodic);
  const ReductionResult b = reduceTrace(st, trace.names(), random);
  EXPECT_GT(a.stats.storedSegments, 0u);
  EXPECT_GT(b.stats.storedSegments, 0u);
  // Budgets within 2x of each other.
  EXPECT_LT(a.stats.storedSegments, 2 * b.stats.storedSegments + 10);
  EXPECT_LT(b.stats.storedSegments, 2 * a.stats.storedSegments + 10);
}

}  // namespace
}  // namespace tracered::core
