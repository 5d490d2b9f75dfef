// End-to-end evaluation pipeline (Sec. 4.3): given a full trace and a
// similarity method + threshold, compute every criterion the paper reports:
//
//   * percentage of full trace file size (serialized reduced / serialized
//     full, both through the real binary formats),
//   * degree of matching (matches / possible matches),
//   * approximation distance (90th percentile of |reconstructed - original|
//     over all event timestamps),
//   * retention of performance trends (EXPERT-like diagnosis comparison).
//
// `PreparedTrace` caches everything that is method-independent (segments,
// full file size, full-trace severity cube) so sweeping 9 methods x 6
// thresholds over one workload only pays for the reduction pipeline.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/compare.hpp"
#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"

namespace tracered::eval {

/// Method-independent per-workload state.
struct PreparedTrace {
  Trace trace;
  SegmentedTrace segmented;
  std::size_t fullBytes = 0;
  analysis::SeverityCube fullCube;
};

/// Segments and analyzes a trace once.
PreparedTrace prepare(Trace trace);

/// All evaluation criteria for one (method, threshold) on one workload.
struct MethodEvaluation {
  core::Method method = core::Method::kRelDiff;
  double threshold = 0.0;

  std::size_t fullBytes = 0;
  std::size_t reducedBytes = 0;
  double filePct = 0.0;           ///< 100 * reduced / full (Sec. 4.3.1).
  double degreeOfMatching = 0.0;  ///< Sec. 4.3.2.
  double approxDistanceUs = 0.0;  ///< 90th-pct |Δtimestamp| (Sec. 4.3.3).
  std::size_t storedSegments = 0;
  std::size_t totalSegments = 0;

  analysis::TrendComparison trends;  ///< Sec. 4.3.4.
  analysis::SeverityCube reducedCube;
};

/// Runs reduce -> size -> reconstruct -> error -> diagnose for one config.
/// The config's execution policy shards the reduction across ranks (pass a
/// shared util::PooledExecutor to amortize worker spawn/join over a whole
/// 9-method x 6-threshold sweep); the result never depends on it, so sweeps
/// stay comparable across machines.
MethodEvaluation evaluateMethod(const PreparedTrace& prepared,
                                const core::ReductionConfig& config);

/// The criteria for an already-made reduction of `prepared` — sizes,
/// matching (from `stats`, e.g. core::statsFromReduced of a trace file),
/// approximation distance, trend retention — without re-running the reducer.
/// evaluateMethod delegates here after reducing; the CLI's `eval` command
/// calls it directly on two files. method/threshold in the result are left
/// at their defaults (the reduced trace does not record them);
/// `distancePercentile` selects the approximation-distance percentile
/// (paper default p90). Throws std::invalid_argument if `reduced` is not
/// structurally a reduction of `prepared` (rank/segment/event counts must
/// line up).
MethodEvaluation evaluateReduction(const PreparedTrace& prepared,
                                   const ReducedTrace& reduced,
                                   const core::ReductionStats& stats,
                                   double distancePercentile = 90.0);

/// evaluateMethod at the paper's default threshold, optionally through a
/// caller-owned executor.
MethodEvaluation evaluateMethodDefault(const PreparedTrace& prepared, core::Method method,
                                       util::PooledExecutor* executor = nullptr);

/// The approximation-distance metric on its own: percentile (default p90) of
/// absolute timestamp differences between two structurally identical
/// segmented traces.
double approximationDistance(const SegmentedTrace& original,
                             const SegmentedTrace& reconstructed, double percentile = 90.0);

}  // namespace tracered::eval
