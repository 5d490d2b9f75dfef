// The trace reduction algorithm of Sec. 3.1.
//
// For each rank independently (reduction is intra-process): walk the rank's
// segments in execution order; rebase times (done by the segmenter); ask the
// similarity policy for a match among stored representatives; on a match,
// record (representative id, start time) in segmentExecs; otherwise store
// the segment as a new representative and record its own id.
//
// The per-rank matching loop itself lives in RankReductionEngine; this
// header provides the whole-trace drivers: the policy-level serial
// `reduceTrace` (one caller-owned policy reused across ranks — the primitive
// custom policies plug into) and the config-driven driver, which shards
// ranks through the ReductionConfig's executor (a caller-owned Executor that
// amortizes worker spawn/join across calls), or runs them inline when it is
// null. Results are assembled in rank order, so every executor is
// bit-identical to serial.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/methods.hpp"
#include "core/rank_reduction_engine.hpp"
#include "core/reduction_config.hpp"
#include "core/similarity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "util/executor.hpp"

namespace tracered::core {

/// Result of reducing one whole trace. `stats` is the merge of the per-rank
/// stats; `counters` the merged matching-loop instrumentation (deterministic
/// across execution policies, like everything else in the result).
struct ReductionResult {
  ReducedTrace reduced;
  ReductionStats stats;
  MatchCounters counters;
};

/// Observer for long reductions: called after each rank completes with
/// (ranksCompleted, ranksTotal). Under a parallel executor the calls
/// come from worker threads but are serialized (never concurrent), and
/// ranksCompleted is strictly increasing; completion ORDER across ranks is
/// scheduling-dependent even though the result never is.
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Workers runSharded(executor, numItems, ...) may use: min(executor
/// concurrency, numItems), 1 when `executor` is null or there are no items.
/// Size per-worker state (e.g. one SimilarityPolicy per worker) with this.
std::size_t shardWorkers(const util::Executor* executor, std::size_t numItems);

/// Runs `fn(workerIndex, itemIndex)` for every item in [0, numItems) through
/// `executor`, or inline on the calling thread when it is null — the one
/// place the drivers (offline, online, cross-rank) shard, so they can never
/// diverge. If `progress` is set, reports (itemsCompleted, numItems) after
/// each item, serialized and strictly increasing.
void runSharded(util::Executor* executor, std::size_t numItems,
                const std::function<void(std::size_t, std::size_t)>& fn,
                const ProgressFn& progress = {});

/// Assembles a whole-trace result from per-rank pieces (already in rank
/// order), interning `names` and merging stats and counters. Shared by the
/// serial, parallel, and online drivers so their assembly can never diverge.
ReductionResult assembleReduction(const StringTable& names,
                                  std::vector<RankReduced>&& ranks,
                                  const std::vector<ReductionStats>& stats,
                                  const std::vector<MatchCounters>& counters);

/// Reduces `segmented` (all ranks) with `policy`, serially in rank order.
/// `names` is copied into the reduced trace so it is self-contained.
ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            SimilarityPolicy& policy);

/// Reduces `segmented` per `config`: the configured method/threshold,
/// sharded across ranks through the configured executor (one policy
/// instance per worker). Deterministic: bit-identical to the serial
/// policy-level overload for any executor.
ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            const ReductionConfig& config,
                            const ProgressFn& progress = {});

}  // namespace tracered::core
