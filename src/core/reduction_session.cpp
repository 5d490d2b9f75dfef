#include "core/reduction_session.hpp"

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace tracered::core {

ReductionSession::Lane::Lane(Rank rank, const StringTable& names,
                             const ReductionConfig& config)
    : policy(config.makePolicy()), segmenter(rank, names), engine(rank, *policy) {}

ReductionSession::ReductionSession(const StringTable& names,
                                   const ReductionConfig& config)
    : names_(names), config_(config) {}

ReductionSession::Lane& ReductionSession::lane(Rank rank) {
  if (rank < 0) throw std::invalid_argument("reduction session: negative rank");
  auto it = lanes_.lower_bound(rank);
  if (it == lanes_.end() || it->first != rank)
    it = lanes_.emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(rank),
                             std::forward_as_tuple(rank, names_, config_));
  return it->second;
}

void ReductionSession::ensureRank(Rank rank) {
  if (finished_)
    throw std::logic_error("reduction session: ensureRank after the session finished");
  lane(rank);
}

void ReductionSession::feed(Rank rank, const RawRecord& record) {
  if (finished_)
    throw std::logic_error("reduction session: feed after the session finished");
  if (lastLane_ == nullptr || lastLane_->segmenter.rank() != rank) lastLane_ = &lane(rank);
  Lane& l = *lastLane_;
  if (const SegmentHeader* closed = l.segmenter.push(record, l.pool)) {
    l.engine.consume(closed->view(rank, l.pool));
    l.pool.clear();
  }
  ++recordsFed_;
}

std::size_t ReductionSession::retainedBytes() const {
  std::size_t bytes = 0;
  for (const auto& [rank, l] : lanes_) bytes += l.engine.retainedBytes();
  return bytes;
}

void ReductionSession::setMergeOptions(const MergeOptions& options) {
  if (finished_)
    throw std::logic_error("reduction session: setMergeOptions after the session finished");
  mergeOptions_ = options;
}

ReductionResult ReductionSession::finalize(ReductionResult result) {
  if (mergeOptions_) mergeResult_ = mergeAcrossRanks(result.reduced, *mergeOptions_);
  return result;
}

ReductionResult ReductionSession::finish() {
  if (finished_)
    throw std::logic_error("reduction session: finish after the session finished");
  finished_ = true;

  // Lanes iterate in rank-id order. The end-of-stream checks run first and
  // serially, so a malformed stream reports its lowest bad rank whatever the
  // executor; finishing each lane is then independent (own policy and
  // store), and the indexed writes keep assembly deterministic.
  std::vector<Lane*> lanes;
  lanes.reserve(lanes_.size());
  for (auto& [rank, l] : lanes_) {
    l.segmenter.finish();
    lanes.push_back(&l);
  }

  std::vector<RankReduced> reducedByIndex(lanes.size());
  runSharded(
      config_.executor, lanes.size(),
      [&](std::size_t, std::size_t i) { reducedByIndex[i] = lanes[i]->engine.finish(); },
      progress_);

  std::vector<ReductionStats> statsByIndex;
  std::vector<MatchCounters> countersByIndex;
  statsByIndex.reserve(lanes.size());
  countersByIndex.reserve(lanes.size());
  for (const Lane* l : lanes) {
    statsByIndex.push_back(l->engine.stats());  // totals set by finish()
    countersByIndex.push_back(l->engine.counters());
  }
  return finalize(assembleReduction(names_, std::move(reducedByIndex), statsByIndex,
                                    countersByIndex));
}

ReductionResult ReductionSession::reduce(const SegmentedTrace& segmented) {
  if (finished_)
    throw std::logic_error("reduction session: reduce after the session finished");
  if (!lanes_.empty())
    throw std::logic_error(
        "reduction session: reduce on a streaming session (records were fed or "
        "ranks pre-registered via ensureRank; call finish() instead)");
  finished_ = true;
  return finalize(reduceTrace(segmented, names_, config_, progress_));
}

}  // namespace tracered::core
