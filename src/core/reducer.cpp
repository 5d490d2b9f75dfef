#include "core/reducer.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/executor.hpp"

namespace tracered::core {

namespace {

/// One rank's reduction plus its accounting, as produced by the engine.
struct RankOutcome {
  RankReduced reduced;
  ReductionStats stats;
  MatchCounters counters;
};

/// Runs the Sec. 3.1 loop for one rank through the shared engine.
RankOutcome reduceRank(const RankSegments& rank, SimilarityPolicy& policy) {
  RankReductionEngine engine(rank.rank, policy);
  for (const Segment& seg : rank.segments) engine.consume(seg);
  RankReduced reduced = engine.finish();
  return {std::move(reduced), engine.stats(), engine.counters()};
}

}  // namespace

std::size_t shardWorkers(const util::Executor* executor, std::size_t numItems) {
  if (executor == nullptr || numItems == 0) return 1;
  return std::min(executor->concurrency(), numItems);
}

void runSharded(util::Executor* executor, std::size_t numItems,
                const std::function<void(std::size_t, std::size_t)>& fn,
                const ProgressFn& progress) {
  std::size_t done = 0;
  std::mutex progressMutex;  // count-and-notify atomically, so calls are
                             // serialized and strictly increasing
  const auto item = [&](std::size_t worker, std::size_t i) {
    fn(worker, i);
    if (!progress) return;
    std::lock_guard<std::mutex> lock(progressMutex);
    progress(++done, numItems);
  };
  if (executor != nullptr) {
    executor->shard(numItems, item);
  } else {
    for (std::size_t i = 0; i < numItems; ++i) item(0, i);
  }
}

ReductionResult assembleReduction(const StringTable& names,
                                  std::vector<RankReduced>&& ranks,
                                  const std::vector<ReductionStats>& stats,
                                  const std::vector<MatchCounters>& counters) {
  ReductionResult out;
  for (const auto& s : names.all()) out.reduced.names.intern(s);
  out.reduced.ranks = std::move(ranks);
  for (const ReductionStats& st : stats) out.stats.merge(st);
  for (const MatchCounters& c : counters) out.counters.merge(c);
  return out;
}

ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            SimilarityPolicy& policy) {
  std::vector<RankReduced> reducedByRank;
  std::vector<ReductionStats> statsByRank;
  std::vector<MatchCounters> countersByRank;
  reducedByRank.reserve(segmented.ranks.size());
  statsByRank.reserve(segmented.ranks.size());
  countersByRank.reserve(segmented.ranks.size());
  for (const RankSegments& rank : segmented.ranks) {
    RankOutcome outcome = reduceRank(rank, policy);
    reducedByRank.push_back(std::move(outcome.reduced));
    statsByRank.push_back(outcome.stats);
    countersByRank.push_back(outcome.counters);
  }
  return assembleReduction(names, std::move(reducedByRank), statsByRank,
                           countersByRank);
}

ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            const ReductionConfig& config, const ProgressFn& progress) {
  const std::size_t numRanks = segmented.ranks.size();
  const std::size_t workers = shardWorkers(config.executor, numRanks);

  // One policy instance per worker: policies are stateful per rank and reset
  // via beginRank(), exactly as the serial driver reuses its one policy
  // across ranks. Each result lands in its rank's slot, so assembly below is
  // in rank order and the output is bit-identical to serial regardless of
  // scheduling.
  //
  // Determinism constraint: this depends on beginRank() FULLY resetting the
  // policy — a policy whose behavior depends on how many ranks it has seen
  // (e.g. sampling.hpp's RandomSamplingPolicy, which seeds its RNG from a
  // per-policy rank counter) would vary with scheduling. Every method
  // reachable through makePolicy satisfies the constraint; keep it that way
  // (or switch such a policy to keying off Segment::rank) before adding one
  // to the Method enum.
  std::vector<std::unique_ptr<SimilarityPolicy>> policies;
  policies.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    policies.push_back(config.makePolicy());

  std::vector<RankReduced> reducedByRank(numRanks);
  std::vector<ReductionStats> statsByRank(numRanks);
  std::vector<MatchCounters> countersByRank(numRanks);
  runSharded(
      config.executor, numRanks,
      [&](std::size_t worker, std::size_t i) {
        RankOutcome outcome = reduceRank(segmented.ranks[i], *policies[worker]);
        reducedByRank[i] = std::move(outcome.reduced);
        statsByRank[i] = outcome.stats;
        countersByRank[i] = outcome.counters;
      },
      progress);

  return assembleReduction(names, std::move(reducedByRank), statsByRank,
                           countersByRank);
}

}  // namespace tracered::core
