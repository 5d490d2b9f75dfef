// Tests for the Halo2D stencil proxy.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "halo/halo2d.hpp"
#include "sim/validate.hpp"
#include "trace/segmenter.hpp"

namespace tracered::halo {
namespace {

Halo2DConfig tiny() {
  Halo2DConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.nx = cfg.ny = 64;
  cfg.iterations = 12;
  cfg.reduceEvery = 4;
  cfg.usPerCell = 0.05;  // keep work ~200 µs at this size
  return cfg;
}

TEST(Halo2D, ProgramValidates) {
  const sim::Program p = makeProgram(tiny());
  const auto issues = sim::validateProgram(p);
  for (const auto& issue : issues)
    EXPECT_NE(issue.severity, sim::ValidationIssue::Severity::kError) << issue.message;
  EXPECT_TRUE(sim::isValid(issues));
}

TEST(Halo2D, SimulatesAndSegments) {
  const Trace trace = runHalo2D(tiny());
  EXPECT_EQ(trace.numRanks(), 4);
  const SegmentedTrace st = segmentTrace(trace);
  // Per rank: init + final + 12 steps + 3 residuals.
  for (const auto& rank : st.ranks) EXPECT_EQ(rank.size(), 2u + 12u + 3u);
}

TEST(Halo2D, InteriorVsCornerNeighbourCounts) {
  Halo2DConfig cfg = tiny();
  cfg.px = 3;
  cfg.py = 3;
  const Trace trace = runHalo2D(cfg);
  const SegmentedTrace st = segmentTrace(trace);
  const NameId step = trace.names().find("step");
  auto recvCount = [&](Rank r) {
    for (const SegmentView s : st.ranks[static_cast<std::size_t>(r)]) {
      if (s.context != step) continue;
      std::size_t recvs = 0;
      for (const auto& e : s.events)
        if (e.op == OpKind::kRecv) ++recvs;
      return recvs;
    }
    return std::size_t{0};
  };
  EXPECT_EQ(recvCount(0), 2u);  // corner
  EXPECT_EQ(recvCount(1), 3u);  // edge
  EXPECT_EQ(recvCount(4), 4u);  // interior
}

TEST(Halo2D, HotspotShowsUpAsNeighbourWaits) {
  Halo2DConfig cfg = tiny();
  cfg.hotspotRank = 0;
  cfg.hotspotFactor = 2.0;
  const Trace trace = runHalo2D(cfg);
  const auto cube = analysis::analyze(segmentTrace(trace));
  // Neighbours of the hotspot wait for its halo: Late Sender severity on
  // their receives, none attributable to the hotspot's own receives.
  const NameId recv = trace.names().find("MPI_Recv");
  const auto profile = cube.profile(analysis::Metric::kLateSender, recv);
  EXPECT_GT(profile[1], 0.0);  // east neighbour of rank 0
  EXPECT_GT(profile[2], 0.0);  // north neighbour of rank 0
  EXPECT_LT(profile[0], profile[1] / 4.0 + 1000.0);
}

TEST(Halo2D, BalancedRunHasSmallWaits) {
  const Trace trace = runHalo2D(tiny());
  const auto cube = analysis::analyze(segmentTrace(trace));
  const double waits = cube.metricTotal(analysis::Metric::kLateSender) +
                       cube.metricTotal(analysis::Metric::kWaitAtNxN);
  const double exec = cube.metricTotal(analysis::Metric::kExecutionTime);
  EXPECT_LT(waits, exec * 0.25);
}

TEST(Halo2D, NoiseInjectionIncreasesWaits) {
  const Halo2DConfig cfg = tiny();
  const Trace quiet = runHalo2D(cfg);
  auto noise = sim::makeAsciQ1024Noise(5);
  const Trace noisy = runHalo2D(cfg, noise.get());
  const auto quietCube = analysis::analyze(segmentTrace(quiet));
  const auto noisyCube = analysis::analyze(segmentTrace(noisy));
  EXPECT_GT(noisyCube.metricTotal(analysis::Metric::kLateSender),
            quietCube.metricTotal(analysis::Metric::kLateSender));
}

TEST(Halo2D, DeterministicForFixedSeed) {
  const Halo2DConfig cfg = tiny();
  const Trace a = runHalo2D(cfg);
  const Trace b = runHalo2D(cfg);
  for (Rank r = 0; r < a.numRanks(); ++r) {
    ASSERT_EQ(a.rank(r).records.size(), b.rank(r).records.size());
    for (std::size_t i = 0; i < a.rank(r).records.size(); ++i)
      ASSERT_EQ(a.rank(r).records[i], b.rank(r).records[i]);
  }
}

}  // namespace
}  // namespace tracered::halo
