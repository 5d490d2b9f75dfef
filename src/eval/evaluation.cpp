#include "eval/evaluation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace tracered::eval {

PreparedTrace prepare(Trace trace) {
  PreparedTrace out{std::move(trace), {}, 0, analysis::SeverityCube(0)};
  out.segmented = segmentTrace(out.trace);
  out.fullBytes = fullTraceSize(out.trace);
  out.fullCube = analysis::analyze(out.segmented);
  return out;
}

double approximationDistance(const SegmentedTrace& original,
                             const SegmentedTrace& reconstructed, double p) {
  if (original.ranks.size() != reconstructed.ranks.size())
    throw std::invalid_argument("approximationDistance: rank count mismatch");
  std::vector<double> diffs;
  diffs.reserve(2 * original.totalEvents());
  for (std::size_t r = 0; r < original.ranks.size(); ++r) {
    const RankSegments& orig = original.ranks[r];
    const RankSegments& rec = reconstructed.ranks[r];
    if (orig.size() != rec.size())
      throw std::invalid_argument("approximationDistance: segment count mismatch");
    for (std::size_t s = 0; s < orig.size(); ++s) {
      const SegmentView a = orig[s];
      const SegmentView b = rec[s];
      if (a.events.size() != b.events.size())
        throw std::invalid_argument("approximationDistance: event count mismatch");
      for (std::size_t e = 0; e < a.events.size(); ++e) {
        const double ds = static_cast<double>((a.absStart + a.events[e].start) -
                                              (b.absStart + b.events[e].start));
        const double de = static_cast<double>((a.absStart + a.events[e].end) -
                                              (b.absStart + b.events[e].end));
        diffs.push_back(std::fabs(ds));
        diffs.push_back(std::fabs(de));
      }
      diffs.push_back(std::fabs(static_cast<double>((a.absStart + a.end) -
                                                    (b.absStart + b.end))));
    }
  }
  return percentile(std::move(diffs), p);
}

MethodEvaluation evaluateReduction(const PreparedTrace& prepared,
                                   const ReducedTrace& reduced,
                                   const core::ReductionStats& stats,
                                   double distancePercentile) {
  MethodEvaluation out;
  out.fullBytes = prepared.fullBytes;

  out.reducedBytes = reducedTraceSize(reduced);
  out.filePct = 100.0 * static_cast<double>(out.reducedBytes) /
                static_cast<double>(out.fullBytes);
  out.degreeOfMatching = stats.degreeOfMatching();
  out.storedSegments = stats.storedSegments;
  out.totalSegments = stats.totalSegments;

  const SegmentedTrace reconstructed = core::reconstruct(reduced);
  out.approxDistanceUs =
      approximationDistance(prepared.segmented, reconstructed, distancePercentile);

  out.reducedCube = analysis::analyze(reconstructed);
  out.trends = analysis::compareTrends(prepared.fullCube, out.reducedCube);
  return out;
}

MethodEvaluation evaluateMethod(const PreparedTrace& prepared,
                                const core::ReductionConfig& config) {
  const core::ReductionResult reduction =
      core::reduceTrace(prepared.segmented, prepared.trace.names(), config);
  MethodEvaluation out = evaluateReduction(prepared, reduction.reduced, reduction.stats);
  out.method = config.method;
  out.threshold = config.threshold;
  return out;
}

MethodEvaluation evaluateMethodDefault(const PreparedTrace& prepared, core::Method method,
                                       util::PooledExecutor* executor) {
  core::ReductionConfig config = core::ReductionConfig::defaults(method);
  config.executor = executor;
  return evaluateMethod(prepared, config);
}

}  // namespace tracered::eval
