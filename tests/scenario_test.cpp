// The scenario generator subsystem: spec registry shape, parameter
// resolution/validation, the determinism guarantee (same spec + seed =>
// byte-identical TRF1), and the structural properties each scenario family
// promises (bursts, drift, stragglers, idle ranks, sibling regions, noise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "eval/scenarios.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"

namespace tracered::eval {
namespace {

WorkloadOptions tiny() {
  WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

TEST(ScenarioRegistry, AtLeastSixScenariosAllWellFormed) {
  EXPECT_GE(scenarioSpecs().size(), 6u);
  ASSERT_EQ(scenarioSpecs().size(), scenarioNames().size());
  std::set<std::string> seen;
  for (const ScenarioSpec& spec : scenarioSpecs()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    EXPECT_FALSE(spec.summary.empty()) << spec.name;
    EXPECT_TRUE(isScenario(spec.name));
    EXPECT_EQ(findScenarioSpec(spec.name), &spec);
    // Every scenario declares the two knobs the registry scaling relies on.
    std::set<std::string> keys;
    for (const ScenarioParam& p : spec.params) {
      EXPECT_TRUE(keys.insert(p.key).second) << spec.name << " param " << p.key;
      EXPECT_FALSE(p.help.empty()) << spec.name << " param " << p.key;
      EXPECT_GE(p.value, p.min) << spec.name << " param " << p.key;
    }
    EXPECT_TRUE(keys.count("ranks")) << spec.name;
    EXPECT_TRUE(keys.count("iters")) << spec.name;
  }
  EXPECT_FALSE(isScenario("late_sender"));
  EXPECT_EQ(findScenarioSpec("nope"), nullptr);
}

TEST(ScenarioRegistry, RequiredFamiliesAreRegistered) {
  for (const char* name : {"bursty_phases", "drifting_cost", "stragglers",
                           "sparse_ranks", "multi_region", "noise_profile"})
    EXPECT_TRUE(isScenario(name)) << name;
}

TEST(ScenarioDeterminism, SameSpecAndSeedIsByteIdentical) {
  for (const std::string& name : scenarioNames()) {
    SCOPED_TRACE(name);
    const auto a = serializeFullTrace(runScenario(name, tiny()));
    const auto b = serializeFullTrace(runScenario(name, tiny()));
    EXPECT_EQ(a, b);

    WorkloadOptions reseeded = tiny();
    reseeded.seed = 43;
    EXPECT_NE(serializeFullTrace(runScenario(name, reseeded)), a);
  }
}

TEST(ScenarioDeterminism, RegistrySpellingsAgree) {
  const auto direct = serializeFullTrace(runScenario("stragglers", tiny()));
  EXPECT_EQ(serializeFullTrace(runWorkload("scenario:stragglers", tiny())), direct);
  EXPECT_EQ(serializeFullTrace(runWorkload("stragglers", tiny())), direct);
}

TEST(ScenarioParamsTest, OverridesChangeTheTraceAndDefaultsResolve) {
  const ScenarioSpec* spec = findScenarioSpec("bursty_phases");
  ASSERT_NE(spec, nullptr);
  const ScenarioParams defaults = resolveScenarioParams(*spec, {});
  EXPECT_EQ(defaults.size(), spec->params.size());
  EXPECT_EQ(defaults.at("burst_factor"), 6.0);

  const ScenarioParams merged = resolveScenarioParams(*spec, {{"burst_factor", 9.0}});
  EXPECT_EQ(merged.at("burst_factor"), 9.0);
  EXPECT_EQ(merged.at("period"), defaults.at("period"));

  const auto base = serializeFullTrace(runScenario("bursty_phases", tiny()));
  const auto bigger =
      serializeFullTrace(runScenario("bursty_phases", tiny(), {{"burst_factor", 9.0}}));
  EXPECT_NE(base, bigger);
  // And the parameterized run is itself deterministic.
  EXPECT_EQ(serializeFullTrace(runScenario("bursty_phases", tiny(), {{"burst_factor", 9.0}})),
            bigger);
}

TEST(ScenarioParamsTest, UnknownKeySuggestsNearestCandidate) {
  const ScenarioSpec* spec = findScenarioSpec("bursty_phases");
  ASSERT_NE(spec, nullptr);
  try {
    resolveScenarioParams(*spec, {{"burst_fctor", 2.0}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("burst_factor"), std::string::npos) << e.what();
  }
}

TEST(ScenarioParamsTest, NonFiniteAndBelowMinimumRejected) {
  const ScenarioSpec* spec = findScenarioSpec("stragglers");
  ASSERT_NE(spec, nullptr);
  EXPECT_THROW(resolveScenarioParams(*spec, {{"work", std::nan("")}}),
               std::invalid_argument);
  EXPECT_THROW(resolveScenarioParams(*spec, {{"work", INFINITY}}), std::invalid_argument);
  EXPECT_THROW(resolveScenarioParams(*spec, {{"ranks", 1.0}}), std::invalid_argument);
  EXPECT_THROW(resolveScenarioParams(*spec, {{"slowdown", 0.5}}), std::invalid_argument);
  EXPECT_THROW(runScenario("stragglers", tiny(), {{"ranks", 0.0}}),
               std::invalid_argument);
}

TEST(ScenarioParamsTest, CountParamsRejectFractionsNeverRound) {
  // Same rule as iter_k's k: a count that would be silently llround'ed is
  // an error, so two distinct specs can never alias to one program.
  const ScenarioSpec* spec = findScenarioSpec("sparse_ranks");
  ASSERT_NE(spec, nullptr);
  for (const char* key : {"ranks", "iters", "stride", "bytes"})
    EXPECT_THROW(resolveScenarioParams(*spec, {{key, 8.5}}), std::invalid_argument)
        << key;
  // Real-valued knobs still take fractions.
  EXPECT_EQ(resolveScenarioParams(*spec, {{"skew", 1.25}}).at("skew"), 1.25);
  EXPECT_THROW(runScenario("stragglers", tiny(), {{"straggler_every", 2.5}}),
               std::invalid_argument);
  // Counts past int range would wrap in the builders' int conversion —
  // rejected, never wrapped into a degenerate 4-iteration trace.
  EXPECT_THROW(resolveScenarioParams(*spec, {{"iters", 3e9}}), std::invalid_argument);
}

TEST(ScenarioParamsTest, UnknownScenarioSuggestsNearestCandidate) {
  try {
    runScenario("bursty_phase", tiny());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bursty_phases"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Family-specific structure.

TEST(ScenarioShapes, BurstyPhasesHasTwoDurationClusters) {
  // Rank 0's main.1 segments split into calm and burst iterations with a
  // clean gap: the burst segments are far longer than the calm median.
  const Trace t = runScenario("bursty_phases", tiny());
  const SegmentedTrace st = segmentTrace(t);
  std::vector<TimeUs> durations;
  for (const SegmentView s : st.ranks[0])
    if (t.names().name(s.context) == "main.1") durations.push_back(s.end);
  ASSERT_GE(durations.size(), 8u);
  std::sort(durations.begin(), durations.end());
  const TimeUs calmMedian = durations[durations.size() / 2];
  EXPECT_GT(durations.back(), calmMedian * 3) << "no burst cluster";
}

TEST(ScenarioShapes, DriftingCostGrowsMonotonically) {
  const Trace t = runScenario("drifting_cost", tiny(), {{"drift", 0.05}});
  const SegmentedTrace st = segmentTrace(t);
  std::vector<TimeUs> durations;
  for (const SegmentView s : st.ranks[0])
    if (t.names().name(s.context) == "main.1") durations.push_back(s.end);
  ASSERT_GE(durations.size(), 4u);
  // 5% per iteration dwarfs the ~1.5% jitter: last >> first.
  EXPECT_GT(durations.back(), durations.front() + durations.front() / 10);
}

TEST(ScenarioShapes, SparseRanksLeavesIdleRanksIdle) {
  const Trace t = runScenario("sparse_ranks", tiny());
  const SegmentedTrace st = segmentTrace(t);
  ASSERT_EQ(st.ranks.size(), 32u);
  std::size_t idle = 0;
  for (const RankSegments& rs : st.ranks) {
    if (rs.rank % 4 == 0) {
      EXPECT_GT(rs.size(), 2u) << "active rank " << rs.rank;
    } else {
      // init + final only.
      EXPECT_EQ(rs.size(), 2u) << "idle rank " << rs.rank;
      ++idle;
    }
  }
  EXPECT_EQ(idle, 24u);
}

TEST(ScenarioShapes, MultiRegionEmitsThreeSiblingContextsPerIteration) {
  const Trace t = runScenario("multi_region", tiny());
  const SegmentedTrace st = segmentTrace(t);
  std::map<std::string, std::size_t> contexts;
  for (const SegmentView s : st.ranks[0]) ++contexts[t.names().name(s.context)];
  EXPECT_EQ(contexts.count("it.fill"), 1u);
  EXPECT_EQ(contexts.count("it.exchange"), 1u);
  EXPECT_EQ(contexts.count("it.reduce"), 1u);
  EXPECT_EQ(contexts["it.fill"], contexts["it.exchange"]);
  EXPECT_EQ(contexts["it.fill"], contexts["it.reduce"]);
}

TEST(ScenarioShapes, NoiseProfileIntensityStretchesTheRun) {
  // 30x the interrupt duration must visibly stretch the same program.
  const Trace quiet =
      runScenario("noise_profile", tiny(), {{"noise_duration", 1.0}});
  const Trace noisy =
      runScenario("noise_profile", tiny(), {{"noise_duration", 3000.0}});
  auto span = [](const Trace& t) {
    TimeUs last = 0;
    for (Rank r = 0; r < t.numRanks(); ++r)
      if (!t.rank(r).records.empty()) last = std::max(last, t.rank(r).records.back().time);
    return last;
  };
  EXPECT_GT(span(noisy), span(quiet) + span(quiet) / 4);
}

TEST(ScenarioShapes, StragglersScaleRanksByParam) {
  const Trace t = runScenario("stragglers", tiny(), {{"ranks", 6.0}});
  EXPECT_EQ(t.numRanks(), 6);
}

}  // namespace
}  // namespace tracered::eval
