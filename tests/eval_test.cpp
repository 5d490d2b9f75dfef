// Tests for the evaluation pipeline: criteria computation, caching
// consistency, approximation distance semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/methods.hpp"
#include "eval/evaluation.hpp"
#include "eval/workloads.hpp"
#include "test_helpers.hpp"

namespace tracered::eval {
namespace {

WorkloadOptions tiny() {
  WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

TEST(Workloads, RegistryListsPaperProgramsThenScenarios) {
  // The paper's 18 programs lead, then the scenario: namespace.
  EXPECT_EQ(benchmarkWorkloads().size(), 16u);
  EXPECT_EQ(allWorkloads()[16], "sweep3d_8p");
  EXPECT_EQ(allWorkloads()[17], "sweep3d_32p");
  EXPECT_GE(scenarioWorkloads().size(), 6u);
  EXPECT_EQ(allWorkloads().size(), 18u + scenarioWorkloads().size());
  for (std::size_t i = 0; i < scenarioWorkloads().size(); ++i) {
    EXPECT_EQ(allWorkloads()[18 + i], scenarioWorkloads()[i]);
    EXPECT_EQ(scenarioWorkloads()[i].rfind(kScenarioPrefix, 0), 0u);
  }
}

TEST(Workloads, UnknownNameThrowsWithSuggestion) {
  EXPECT_THROW(runWorkload("not_a_workload", tiny()), std::invalid_argument);
  try {
    runWorkload("late_sendr", tiny());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("late_sender"), std::string::npos) << e.what();
  }
  // A bare-spelling scenario typo is near the bare name, not the
  // "scenario:"-prefixed registry entry — the suggestion must still land.
  try {
    runWorkload("bursty_phase", tiny());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bursty_phases"), std::string::npos) << e.what();
  }
}

TEST(Workloads, OptionsAreValidated) {
  for (double bad : {0.0, -1.0, std::nan(""), static_cast<double>(INFINITY)}) {
    WorkloadOptions o;
    o.scale = bad;
    EXPECT_THROW(runWorkload("late_sender", o), std::invalid_argument) << bad;
    EXPECT_THROW(runWorkload("scenario:bursty_phases", o), std::invalid_argument) << bad;
  }
}

TEST(Workloads, ScaleControlsIterations) {
  WorkloadOptions small = tiny();
  WorkloadOptions big;
  big.scale = 0.3;
  const Trace a = runWorkload("late_sender", small);
  const Trace b = runWorkload("late_sender", big);
  EXPECT_LT(a.totalRecords(), b.totalRecords());
}

TEST(ApproximationDistance, ZeroForIdenticalTraces) {
  const PreparedTrace p = prepare(runWorkload("late_sender", tiny()));
  EXPECT_DOUBLE_EQ(approximationDistance(p.segmented, p.segmented), 0.0);
}

TEST(ApproximationDistance, ReportsKnownShift) {
  StringTable names;
  SegmentedTrace a, b;
  a.ranks.resize(1);
  b.ranks.resize(1);
  for (int i = 0; i < 10; ++i) {
    a.ranks[0].push_back(testing::makeSegment(
        names, "m", 1000 * i, 900, {{"f", OpKind::kCompute, 1, 800, {}}}));
    // Reconstruction shifted every internal timestamp by +50 µs.
    b.ranks[0].push_back(testing::makeSegment(
        names, "m", 1000 * i, 950, {{"f", OpKind::kCompute, 51, 850, {}}}));
  }
  EXPECT_DOUBLE_EQ(approximationDistance(a, b), 50.0);
  EXPECT_DOUBLE_EQ(approximationDistance(a, b, 50.0), 50.0);
}

TEST(ApproximationDistance, PercentileIgnoresRareOutliers) {
  StringTable names;
  SegmentedTrace a, b;
  a.ranks.resize(1);
  b.ranks.resize(1);
  for (int i = 0; i < 100; ++i) {
    a.ranks[0].push_back(testing::makeSegment(
        names, "m", 1000 * i, 900, {{"f", OpKind::kCompute, 1, 800, {}}}));
    const TimeUs err = (i == 0) ? 100000 : 1;  // one huge outlier
    b.ranks[0].push_back(testing::makeSegment(
        names, "m", 1000 * i, 900 + err, {{"f", OpKind::kCompute, 1 + err, 800 + err, {}}}));
  }
  EXPECT_LT(approximationDistance(a, b, 90.0), 10.0);
  EXPECT_GT(approximationDistance(a, b, 100.0), 10000.0);
}

TEST(ApproximationDistance, RejectsStructuralMismatch) {
  StringTable names;
  SegmentedTrace a, b;
  a.ranks.resize(1);
  b.ranks.resize(2);
  EXPECT_THROW(approximationDistance(a, b), std::invalid_argument);
}

TEST(Evaluate, CriteriaAreInternallyConsistent) {
  const PreparedTrace p = prepare(runWorkload("late_sender", tiny()));
  const MethodEvaluation ev = evaluateMethodDefault(p, core::Method::kAvgWave);
  EXPECT_EQ(ev.fullBytes, p.fullBytes);
  EXPECT_GT(ev.reducedBytes, 0u);
  EXPECT_NEAR(ev.filePct, 100.0 * ev.reducedBytes / ev.fullBytes, 1e-9);
  EXPECT_GE(ev.degreeOfMatching, 0.0);
  EXPECT_LE(ev.degreeOfMatching, 1.0);
  EXPECT_GE(ev.approxDistanceUs, 0.0);
  EXPECT_LE(ev.storedSegments, ev.totalSegments);
}

TEST(Evaluate, StrictestReductionIsLossless) {
  // absDiff at threshold 0 stores every distinct segment: reconstruction is
  // exact except for truly identical segments, so approximation distance is 0
  // and trends are retained exactly.
  const PreparedTrace p = prepare(runWorkload("late_sender", tiny()));
  const MethodEvaluation ev = evaluateMethod(p, {core::Method::kAbsDiff, 0.0});
  EXPECT_DOUBLE_EQ(ev.approxDistanceUs, 0.0);
  EXPECT_EQ(ev.trends.verdict, analysis::Verdict::kRetained);
}

TEST(Evaluate, PermissiveThresholdShrinksFilesMore) {
  const PreparedTrace p = prepare(runWorkload("imbalance_at_mpi_barrier", tiny()));
  const MethodEvaluation strict = evaluateMethod(p, {core::Method::kAbsDiff, 10.0});
  const MethodEvaluation loose = evaluateMethod(p, {core::Method::kAbsDiff, 1e6});
  EXPECT_LE(loose.reducedBytes, strict.reducedBytes);
  EXPECT_LE(loose.storedSegments, strict.storedSegments);
  EXPECT_GE(loose.degreeOfMatching, strict.degreeOfMatching);
}

TEST(Evaluate, IterAvgHasSmallestFiles) {
  const PreparedTrace p = prepare(runWorkload("late_sender", tiny()));
  const MethodEvaluation avg = evaluateMethodDefault(p, core::Method::kIterAvg);
  for (core::Method m : core::thresholdedMethods()) {
    const MethodEvaluation other = evaluateMethodDefault(p, m);
    EXPECT_LE(avg.reducedBytes, other.reducedBytes) << core::methodName(m);
  }
  EXPECT_DOUBLE_EQ(avg.degreeOfMatching, 1.0);
}

TEST(Evaluate, DeterministicAcrossCalls) {
  const PreparedTrace p = prepare(runWorkload("late_sender", tiny()));
  const MethodEvaluation a = evaluateMethod(p, {core::Method::kEuclidean, 0.2});
  const MethodEvaluation b = evaluateMethod(p, {core::Method::kEuclidean, 0.2});
  EXPECT_EQ(a.reducedBytes, b.reducedBytes);
  EXPECT_DOUBLE_EQ(a.approxDistanceUs, b.approxDistanceUs);
  EXPECT_EQ(a.trends.verdict, b.trends.verdict);
}

}  // namespace
}  // namespace tracered::eval
