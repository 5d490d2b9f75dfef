// Extension bench: the paper's future-work directions, evaluated with the
// same criteria as the nine studied methods.
//
//   1. Trace sampling ("investigating additional difference methods, such as
//      trace sampling"): periodic keep-every-k and probabilistic keep-with-p
//      sampling across benchmarks, versus iter_k (their closest relative in
//      the studied set) and avgWave (the paper's winner).
//   2. A richer application set ("evaluating the methods against a richer
//      set of full application traces"): the Halo2D stencil proxy, balanced,
//      with a hotspot rank, and under ASCI-Q-style noise.
#include "analysis/profile.hpp"
#include "bench_common.hpp"
#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "core/sampling.hpp"
#include "halo/halo2d.hpp"
#include "trace/segmenter.hpp"

using namespace tracered;
using namespace tracered::bench;

namespace {

/// Evaluates an arbitrary policy with the standard criteria.
eval::MethodEvaluation evaluatePolicy(const eval::PreparedTrace& prepared,
                                      core::SimilarityPolicy& policy) {
  eval::MethodEvaluation out;
  const core::ReductionResult res =
      core::reduceTrace(prepared.segmented, prepared.trace.names(), policy);
  out.fullBytes = prepared.fullBytes;
  out.reducedBytes = reducedTraceSize(res.reduced);
  out.filePct = 100.0 * static_cast<double>(out.reducedBytes) /
                static_cast<double>(out.fullBytes);
  out.degreeOfMatching = res.stats.degreeOfMatching();
  out.storedSegments = res.stats.storedSegments;
  out.totalSegments = res.stats.totalSegments;
  const SegmentedTrace rec = core::reconstruct(res.reduced);
  out.approxDistanceUs = eval::approximationDistance(prepared.segmented, rec);
  out.reducedCube = analysis::analyze(rec);
  out.trends = analysis::compareTrends(prepared.fullCube, out.reducedCube);
  return out;
}

void samplingStudy(TraceCache& cache, const BenchOptions& opts) {
  const std::vector<std::string> workloads = {"late_sender", "dyn_load_balance",
                                              "1to1r_1024", "NtoN_1024"};
  for (const std::string& name : workloads) {
    const eval::PreparedTrace& prepared = cache.get(name);
    TextTable t;
    t.header({"policy", "file %", "match deg", "p90 err (µs)", "trends"});

    for (int k : {2, 5, 10, 50}) {
      core::PeriodicSamplingPolicy p(k);
      const auto ev = evaluatePolicy(prepared, p);
      t.row({"sample_every_" + std::to_string(k), fmtF(ev.filePct, 2),
             fmtF(ev.degreeOfMatching, 3), fmtF(ev.approxDistanceUs, 1),
             analysis::verdictName(ev.trends.verdict)});
    }
    for (double prob : {0.5, 0.2, 0.1, 0.02}) {
      core::RandomSamplingPolicy p(prob, opts.workload.seed);
      const auto ev = evaluatePolicy(prepared, p);
      t.row({"sample_p=" + fmtF(prob, 2), fmtF(ev.filePct, 2),
             fmtF(ev.degreeOfMatching, 3), fmtF(ev.approxDistanceUs, 1),
             analysis::verdictName(ev.trends.verdict)});
    }
    for (core::Method m : {core::Method::kIterK, core::Method::kAvgWave}) {
      const auto ev = eval::evaluateMethodDefault(prepared, m, &opts.executor());
      t.row({std::string(core::methodName(m)) + " (ref)", fmtF(ev.filePct, 2),
             fmtF(ev.degreeOfMatching, 3), fmtF(ev.approxDistanceUs, 1),
             analysis::verdictName(ev.trends.verdict)});
    }
    printTable(t, opts.csv, "Future work 1: trace sampling on " + name);
  }
}

void halo2dStudy(const BenchOptions& opts) {
  struct Scenario {
    const char* label;
    halo::Halo2DConfig cfg;
    bool noisy;
  };
  halo::Halo2DConfig base;
  base.iterations = std::max(8, static_cast<int>(100 * opts.workload.scale));
  base.seed = opts.workload.seed;
  halo::Halo2DConfig hotspot = base;
  hotspot.hotspotRank = 5;
  hotspot.hotspotFactor = 1.6;
  const Scenario scenarios[] = {
      {"halo2d_balanced", base, false},
      {"halo2d_hotspot", hotspot, false},
      {"halo2d_noise1024", base, true},
  };

  for (const Scenario& sc : scenarios) {
    std::unique_ptr<sim::NoiseModel> noise;
    if (sc.noisy) noise = sim::makeAsciQ1024Noise(opts.workload.seed);
    const eval::PreparedTrace prepared =
        eval::prepare(halo::runHalo2D(sc.cfg, noise.get()));

    TextTable t;
    t.header({"method", "file %", "match deg", "p90 err (µs)", "profile err", "trends"});
    const analysis::Profile originalProfile =
        analysis::Profile::fromTrace(prepared.segmented);
    for (core::Method m : core::allMethods()) {
      const eval::MethodEvaluation ev = eval::evaluateMethodDefault(prepared, m, &opts.executor());
      // Aggregate-profile distortion (the Ratn-et-al.-style check).
      auto policy = core::makeDefaultPolicy(m);
      const core::ReductionResult res =
          core::reduceTrace(prepared.segmented, prepared.trace.names(), *policy);
      const analysis::ProfileDistortion dist = analysis::compareProfiles(
          originalProfile,
          analysis::Profile::fromTrace(core::reconstruct(res.reduced)));
      t.row({core::methodName(m), fmtF(ev.filePct, 2), fmtF(ev.degreeOfMatching, 3),
             fmtF(ev.approxDistanceUs, 1), fmtPct(100.0 * dist.maxTotalRelError, 1),
             analysis::verdictName(ev.trends.verdict)});
    }
    printTable(t, opts.csv, std::string("Future work 2: ") + sc.label);
  }
}

void crossRankStudy(TraceCache& cache, const BenchOptions& opts) {
  // Inter-process extension: merge the per-rank representative stores after
  // the intra-process pass and measure the extra compression and the extra
  // error it buys on SPMD workloads.
  TextTable t;
  t.header({"workload", "reps before", "reps after", "file % before", "file % after",
            "p90 err before", "p90 err after"});
  for (const std::string& name :
       {std::string("imbalance_at_mpi_barrier"), std::string("NtoN_32"),
        std::string("sweep3d_8p")}) {
    const eval::PreparedTrace& prepared = cache.get(name);
    auto policy = core::makeDefaultPolicy(core::Method::kAvgWave);
    const core::ReductionResult res =
        core::reduceTrace(prepared.segmented, prepared.trace.names(), *policy);
    const double errBefore = eval::approximationDistance(
        prepared.segmented, core::reconstruct(res.reduced));

    const core::MergeResult mergeResult = core::mergeAcrossRanks(
        res.reduced, core::MergeOptions{core::ReductionConfig{core::Method::kAbsDiff, 500}});
    const core::MergeStats& stats = mergeResult.stats;
    const core::MergedReducedTrace& merged = mergeResult.merged;
    const double errAfter = eval::approximationDistance(
        prepared.segmented, core::reconstructMerged(merged));

    t.row({name, std::to_string(stats.inputRepresentatives),
           std::to_string(stats.mergedRepresentatives),
           fmtF(100.0 * reducedTraceSize(res.reduced) / prepared.fullBytes, 2),
           fmtF(100.0 * core::mergedTraceSize(merged) / prepared.fullBytes, 2),
           fmtF(errBefore, 1), fmtF(errAfter, 1)});
  }
  printTable(t, opts.csv,
             "Extension: cross-rank representative merging (avgWave intra-process "
             "+ absDiff@500 inter-process)");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  TraceCache cache(opts.workload);
  samplingStudy(cache, opts);
  halo2dStudy(opts);
  crossRankStudy(cache, opts);
  return 0;
}
