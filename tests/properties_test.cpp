// Property-based / parameterized suites (TEST_P) sweeping methods and
// thresholds: invariants that must hold for every similarity method on every
// workload class.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "eval/evaluation.hpp"
#include "eval/scenarios.hpp"
#include "eval/workloads.hpp"

namespace tracered::eval {
namespace {

WorkloadOptions tiny() {
  WorkloadOptions o;
  o.scale = 0.08;
  return o;
}

/// Shared per-workload cache so the parameterized suites don't regenerate
/// the same trace dozens of times.
const PreparedTrace& cachedTrace(const std::string& name) {
  static std::map<std::string, PreparedTrace> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, prepare(runWorkload(name, tiny()))).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Invariants per (workload, method) at default thresholds.

using WM = std::tuple<std::string, core::Method>;

std::string wmName(const ::testing::TestParamInfo<WM>& info) {
  std::string name = std::get<0>(info.param);
  for (auto& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name + "_" + core::methodName(std::get<1>(info.param));
}

class MethodInvariants : public ::testing::TestWithParam<WM> {};

TEST_P(MethodInvariants, ReductionPreservesStructure) {
  const auto& [workload, method] = GetParam();
  const PreparedTrace& p = cachedTrace(workload);
  auto policy = core::makeDefaultPolicy(method);
  const core::ReductionResult res =
      core::reduceTrace(p.segmented, p.trace.names(), *policy);

  // Exec count equals segment count, per rank, in order.
  ASSERT_EQ(res.reduced.ranks.size(), p.segmented.ranks.size());
  for (std::size_t r = 0; r < res.reduced.ranks.size(); ++r) {
    const auto& execs = res.reduced.ranks[r].execs;
    const RankSegments& segs = p.segmented.ranks[r];
    ASSERT_EQ(execs.size(), segs.size());
    for (std::size_t s = 0; s < segs.size(); ++s) {
      // Start times recorded exactly.
      EXPECT_EQ(execs[s].start, segs[s].absStart);
      // The representative is compatible with the original segment.
      const Segment& rep = res.reduced.ranks[r].stored.at(execs[s].id);
      EXPECT_TRUE(rep.view().compatible(segs[s]));
    }
  }
}

TEST_P(MethodInvariants, ReconstructionIsStructurallyExact) {
  const auto& [workload, method] = GetParam();
  const PreparedTrace& p = cachedTrace(workload);
  auto policy = core::makeDefaultPolicy(method);
  const core::ReductionResult res =
      core::reduceTrace(p.segmented, p.trace.names(), *policy);
  const SegmentedTrace rec = core::reconstruct(res.reduced);
  ASSERT_EQ(rec.totalSegments(), p.segmented.totalSegments());
  EXPECT_EQ(rec.totalEvents(), p.segmented.totalEvents());
  // Reconstructed segment starts are the true starts — error lives only
  // inside segments.
  for (std::size_t r = 0; r < rec.ranks.size(); ++r)
    for (std::size_t s = 0; s < rec.ranks[r].size(); ++s)
      EXPECT_EQ(rec.ranks[r][s].absStart,
                p.segmented.ranks[r][s].absStart);
}

TEST_P(MethodInvariants, EvaluationBoundsHold) {
  const auto& [workload, method] = GetParam();
  const MethodEvaluation ev = evaluateMethodDefault(cachedTrace(workload), method);
  EXPECT_GT(ev.filePct, 0.0);
  EXPECT_LT(ev.filePct, 130.0);  // reduced may exceed full only marginally
  EXPECT_GE(ev.degreeOfMatching, 0.0);
  EXPECT_LE(ev.degreeOfMatching, 1.0);
  EXPECT_GE(ev.approxDistanceUs, 0.0);
  EXPECT_GE(ev.totalSegments, ev.storedSegments);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsOnRepresentativeWorkloads, MethodInvariants,
    ::testing::Combine(
        ::testing::Values("late_sender", "imbalance_at_mpi_barrier",
                          "dyn_load_balance", "1to1r_32",
                          // One scenario per structurally distinct family:
                          // bursts, idle ranks, sibling contexts.
                          "scenario:bursty_phases", "scenario:sparse_ranks",
                          "scenario:multi_region"),
        ::testing::ValuesIn(core::allMethods())),
    wmName);

// ---------------------------------------------------------------------------
// The degree-of-matching denominator: possibleMatches is the segment count
// minus the distinct signatures of each rank, summed over ranks — counted
// here from the segments themselves, independent of any reducer state — for
// every method, offline and streaming.

class PossibleMatches : public ::testing::TestWithParam<WM> {};

TEST_P(PossibleMatches, EqualSegmentsMinusDistinctSignatures) {
  const auto& [workload, method] = GetParam();
  const PreparedTrace& p = cachedTrace(workload);
  std::size_t expected = 0;
  for (const RankSegments& rs : p.segmented.ranks) {
    std::unordered_set<std::uint64_t> signatures;
    for (const SegmentView s : rs) signatures.insert(s.signature());
    expected += rs.size() - signatures.size();
  }
  const core::ReductionConfig config = core::ReductionConfig::defaults(method);

  const core::ReductionResult offline =
      core::reduceTrace(p.segmented, p.trace.names(), config);
  EXPECT_EQ(offline.stats.possibleMatches, expected);

  core::ReductionSession streaming(p.trace.names(), config);
  for (Rank r = 0; r < p.trace.numRanks(); ++r)
    for (const RawRecord& rec : p.trace.rank(r).records) streaming.feed(r, rec);
  EXPECT_EQ(streaming.finish().stats.possibleMatches, expected);
}

std::vector<std::string> scenarioWorkloads() {
  std::vector<std::string> names;
  for (const std::string& s : scenarioNames()) names.push_back("scenario:" + s);
  return names;
}

INSTANTIATE_TEST_SUITE_P(ScenarioRegistry, PossibleMatches,
                         ::testing::Combine(::testing::ValuesIn(scenarioWorkloads()),
                                            ::testing::ValuesIn(core::allMethods())),
                         wmName);

// ---------------------------------------------------------------------------
// Threshold monotonicity per method (the backbone of the threshold study).

class ThresholdMonotonicity : public ::testing::TestWithParam<core::Method> {};

TEST_P(ThresholdMonotonicity, LooserThresholdsNeverStoreMore) {
  const core::Method method = GetParam();
  const PreparedTrace& p = cachedTrace("imbalance_at_mpi_barrier");
  std::size_t prevStored = SIZE_MAX;
  for (double t : core::studyThresholds(method)) {
    const MethodEvaluation ev = evaluateMethod(p, {method, t});
    if (method == core::Method::kIterK) {
      // iter_k's "threshold" is k: larger k stores MORE.
      EXPECT_LE(prevStored == SIZE_MAX ? 0 : prevStored, ev.storedSegments);
    } else {
      EXPECT_LE(ev.storedSegments, prevStored);
    }
    prevStored = ev.storedSegments;
  }
}

TEST_P(ThresholdMonotonicity, ApproxDistanceZeroWhenEverythingStored) {
  const core::Method method = GetParam();
  if (method == core::Method::kIterK) GTEST_SKIP() << "k=1 stores one per group";
  const PreparedTrace& p = cachedTrace("late_sender");
  // Threshold 0 (or absDiff 0): only bit-identical segments match, so the
  // reconstruction is exact.
  const MethodEvaluation ev = evaluateMethod(p, {method, 0.0});
  EXPECT_DOUBLE_EQ(ev.approxDistanceUs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(ThresholdedMethods, ThresholdMonotonicity,
                         ::testing::ValuesIn(core::thresholdedMethods()),
                         [](const ::testing::TestParamInfo<core::Method>& info) {
                           return core::methodName(info.param);
                         });

// ---------------------------------------------------------------------------
// Workload sanity across the whole registry — iterated from allWorkloads()
// (never hand-listed), so every newly registered scenario is swept for free.

class WorkloadSanity : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSanity, GeneratesSegmentsAndDiagnosis) {
  const PreparedTrace& p = cachedTrace(GetParam());
  EXPECT_GT(p.segmented.totalSegments(), 0u);
  EXPECT_GT(p.fullBytes, 0u);
  // Every workload in the study has a diagnosable inefficiency.
  EXPECT_NE(p.fullCube.dominantWait().callsite, kInvalidName);
}

// Signatures are only bucket keys, so a collision would cost scan time and
// shift reconstruct's group count: across every rank of every registered
// workload, distinct signatures and compatibility classes coincide.
TEST_P(WorkloadSanity, DistinctSignaturesEqualCompatibilityClasses) {
  const PreparedTrace& p = cachedTrace(GetParam());
  std::unordered_set<std::uint64_t> signatures;
  std::set<std::vector<std::int64_t>> classes;  // identity keys, no hashing
  for (const RankSegments& rs : p.segmented.ranks) {
    for (const SegmentView s : rs) {
      signatures.insert(s.signature());
      std::vector<std::int64_t> key = {s.context, static_cast<std::int64_t>(s.events.size())};
      for (const EventInterval& e : s.events)
        key.insert(key.end(), {e.name, static_cast<std::int64_t>(e.op), e.msg.peer, e.msg.tag,
                               e.msg.root, e.msg.comm, e.msg.bytes});
      classes.insert(std::move(key));
    }
  }
  EXPECT_GT(classes.size(), 0u);
  EXPECT_EQ(signatures.size(), classes.size());
}

INSTANTIATE_TEST_SUITE_P(WholeRegistry, WorkloadSanity,
                         ::testing::ValuesIn(allWorkloads()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace tracered::eval
