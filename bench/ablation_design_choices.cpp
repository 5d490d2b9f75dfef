// Ablation bench for the design choices DESIGN.md calls out:
//
//   1. Measurement-jitter sensitivity: how the enter-timestamp jitter that
//      drives relDiff's early-timestamp weakness changes matching rates.
//   2. Signature strictness: how much of the matching loss on sweep3d comes
//      from message-parameter differences (the paper's Sec. 5.2.1
//      observation) — measured by comparing possible matches under the full
//      signature vs a context-only grouping.
//   3. Wavelet padding: zero-padding vs the alternative of padding with the
//      last timestamp (a design decision the paper leaves implicit).
#include <algorithm>
#include <set>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "trace/segmenter.hpp"
#include "wavelet/wavelet.hpp"

using namespace tracered;
using namespace tracered::bench;

namespace {

// --- 1. jitter sensitivity --------------------------------------------------

void jitterAblation(const BenchOptions& opts) {
  TextTable t;
  t.header({"enter jitter (µs)", "relDiff@0.4 match deg", "absDiff@1e3 match deg"});
  for (TimeUs jitter : {0, 1, 2, 5, 10}) {
    ats::AtsConfig cfg;
    cfg.iterations = std::max(4, static_cast<int>(150 * opts.workload.scale));
    cfg.seed = opts.workload.seed;
    ats::Workload w = ats::makeBenchmark("late_sender", cfg);
    w.sim.cost.enterJitterMax = jitter;
    const Trace trace = sim::simulate(w.program, w.sim, w.noise.get());
    const eval::PreparedTrace prepared = eval::prepare(trace);
    const auto rel = eval::evaluateMethod(
        prepared,
        {.method = core::Method::kRelDiff, .threshold = 0.4, .executor = &opts.executor()});
    const auto abs = eval::evaluateMethod(
        prepared,
        {.method = core::Method::kAbsDiff, .threshold = 1e3, .executor = &opts.executor()});
    t.row({std::to_string(jitter), fmtF(rel.degreeOfMatching, 3),
           fmtF(abs.degreeOfMatching, 3)});
  }
  printTable(t, opts.csv,
             "Ablation 1: enter-jitter sensitivity (relDiff's early-timestamp "
             "weakness; absDiff is insensitive)");
}

// --- 2. signature strictness ------------------------------------------------

void signatureAblation(const BenchOptions& opts) {
  sweep3d::Sweep3DConfig cfg = sweep3d::config8p();
  cfg.iterations = std::max(2, static_cast<int>(8 * opts.workload.scale));
  cfg.seed = opts.workload.seed;
  const Trace trace = sweep3d::runSweep3D(cfg);
  const SegmentedTrace st = segmentTrace(trace);

  std::size_t total = 0, fullGroups = 0, contextGroups = 0;
  for (const auto& rank : st.ranks) {
    std::set<std::uint64_t> bySignature;
    std::set<NameId> byContext;
    for (const SegmentView seg : rank) {
      bySignature.insert(seg.signature());
      byContext.insert(seg.context);
    }
    total += rank.size();
    fullGroups += bySignature.size();
    contextGroups += byContext.size();
  }
  TextTable t;
  t.header({"grouping", "groups", "possible matches", "note"});
  t.row({"full signature (paper)", std::to_string(fullGroups),
         std::to_string(total - fullGroups),
         "message params split octants/roles"});
  t.row({"context only", std::to_string(contextGroups),
         std::to_string(total - contextGroups),
         "would falsely merge different sweep directions"});
  printTable(t, opts.csv,
             "Ablation 2: sweep3d segment grouping (Sec. 5.2.1: message-passing "
             "parameters cause segments not to match)");
}

// --- 3. wavelet padding -----------------------------------------------------

void paddingAblation(const BenchOptions& opts) {
  // Compare the transform distance of two jittered segments when padding
  // with zeros (paper) vs padding with the final timestamp. Zero padding
  // introduces an artificial cliff whose height tracks the segment end;
  // last-value padding removes the cliff, shrinking distances.
  TextTable t;
  t.header({"pair Δ (µs)", "dist zero-pad", "dist last-pad"});
  for (TimeUs delta : {5, 20, 80}) {
    std::vector<double> a = {0, 1, 900, 901, 1000};
    std::vector<double> b = {0, 1, 900.0 + delta, 901.0 + delta, 1000.0 + delta};
    auto padLast = [](std::vector<double> v) {
      const double last = v.back();
      v.resize(wavelet::nextPow2(v.size()), last);
      return v;
    };
    const double dz = wavelet::euclideanDistance(
        wavelet::avgTransform(wavelet::padToPow2(a)),
        wavelet::avgTransform(wavelet::padToPow2(b)));
    const double dl = wavelet::euclideanDistance(
        wavelet::avgTransform(padLast(a)), wavelet::avgTransform(padLast(b)));
    t.row({std::to_string(delta), fmtF(dz, 3), fmtF(dl, 3)});
  }
  printTable(t, opts.csv, "Ablation 3: wavelet padding choice");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  jitterAblation(opts);
  signatureAblation(opts);
  paddingAblation(opts);
  return 0;
}
