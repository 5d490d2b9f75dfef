#include "core/rank_reduction_engine.hpp"

#include <stdexcept>

namespace tracered::core {

RankReductionEngine::RankReductionEngine(Rank rank, SimilarityPolicy& policy)
    : policy_(policy) {
  result_.rank = rank;
  policy_.beginRank();
  counterBase_ = policy_.matchCounters();
}

void RankReductionEngine::consume(const Segment& seg) {
  if (finished_)
    throw std::logic_error("rank reduction engine: consume after finish");
  ++stats_.totalSegments;
  // The hash walks the whole event list: compute it once and share it with
  // the policy's bucket lookup and, on a miss, the store's insert.
  const std::uint64_t sig = seg.signature();

  if (auto matched = policy_.tryMatch(seg, sig, store_)) {
    ++stats_.matches;
    result_.execs.push_back(SegmentExec{*matched, seg.absStart});
  } else {
    const SegmentId id = store_.add(seg, sig);
    policy_.onStored(store_.segment(id), id);
    result_.execs.push_back(SegmentExec{id, seg.absStart});
  }
}

MatchCounters RankReductionEngine::counters() const {
  return policy_.matchCounters() - counterBase_;
}

RankReduced RankReductionEngine::finish() {
  if (finished_)
    throw std::logic_error("rank reduction engine: finish called twice");
  finished_ = true;

  // A policy only ever matches into the candidate's own bucket, whose first
  // member was stored, so the distinct incoming signatures are exactly the
  // store's buckets — the same denominator whether the accounting runs
  // offline or streaming. Signatures are hashes; a collision would only
  // perturb the denominator of the degree of matching by a vanishing amount.
  stats_.possibleMatches = stats_.totalSegments - store_.bucketCount();
  stats_.storedSegments = store_.size();

  policy_.finishRank(store_);
  result_.stored = std::move(store_).takeAll();
  return std::move(result_);
}

std::size_t RankReductionEngine::retainedBytes() const {
  std::size_t bytes = result_.execs.size() * sizeof(SegmentExec);
  for (const Segment& s : store_.all())
    bytes += sizeof(Segment) + s.events.size() * sizeof(EventInterval);
  return bytes;
}

}  // namespace tracered::core
