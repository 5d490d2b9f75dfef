#include "core/online_reducer.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/methods.hpp"

namespace tracered::core {

namespace {

[[noreturn]] void fail(Rank rank, const std::string& what) {
  throw std::runtime_error("online reducer: rank " + std::to_string(rank) + ": " + what);
}

}  // namespace

OnlineRankReducer::OnlineRankReducer(Rank rank, const StringTable& names,
                                     SimilarityPolicy& policy)
    : rank_(rank), names_(names), engine_(rank, policy) {
  current_.rank = rank;
}

void OnlineRankReducer::closeSegment(TimeUs endTime) {
  // Rebase in place and hand the segment over; the store copies what it
  // keeps, so the event buffer is cleared (capacity kept) for the next one.
  current_.end = endTime - current_.absStart;
  for (auto& e : current_.events) {
    e.start -= current_.absStart;
    e.end -= current_.absStart;
  }
  engine_.consume(current_);
  current_.events.clear();
  inSegment_ = false;
}

void OnlineRankReducer::feed(const RawRecord& record) {
  if (finished_) fail(rank_, "feed after finish");
  switch (record.kind) {
    case RecordKind::kSegBegin: {
      if (pending_) fail(rank_, "segment begins inside an open event");
      if (inSegment_) fail(rank_, "nested segment begin '" + names_.name(record.name) + "'");
      current_.context = record.name;
      current_.absStart = record.time;
      inSegment_ = true;
      break;
    }
    case RecordKind::kSegEnd: {
      if (pending_) fail(rank_, "segment ends inside an open event");
      if (!inSegment_ || current_.context != record.name)
        fail(rank_, "unmatched segment end '" + names_.name(record.name) + "'");
      // A segment that ends before it began would flow a negative duration
      // into reduction and poison every similarity measurement.
      if (record.time < current_.absStart)
        fail(rank_, "segment '" + names_.name(record.name) + "' ends at " +
                        std::to_string(record.time) + "us, before its begin at " +
                        std::to_string(current_.absStart) + "us");
      closeSegment(record.time);
      break;
    }
    case RecordKind::kEnter: {
      if (!inSegment_) fail(rank_, "event outside any segment");
      if (pending_) fail(rank_, "nested function enter");
      if (record.time < current_.absStart)
        fail(rank_, "event '" + names_.name(record.name) + "' enters at " +
                        std::to_string(record.time) +
                        "us, before its segment began at " +
                        std::to_string(current_.absStart) + "us");
      pending_ = record;
      break;
    }
    case RecordKind::kExit: {
      if (!pending_ || pending_->name != record.name)
        fail(rank_, "exit without matching enter '" + names_.name(record.name) + "'");
      if (record.time < pending_->time)
        fail(rank_, "event '" + names_.name(record.name) + "' exits at " +
                        std::to_string(record.time) + "us, before its enter at " +
                        std::to_string(pending_->time) + "us");
      EventInterval ev;
      ev.name = record.name;
      ev.op = pending_->op;
      ev.msg = pending_->msg;
      ev.start = pending_->time;
      ev.end = record.time;
      current_.events.push_back(ev);
      pending_.reset();
      break;
    }
  }
}

RankReduced OnlineRankReducer::finish() {
  if (finished_) fail(rank_, "finish called twice");
  if (pending_) fail(rank_, "stream ends inside an open event");
  if (inSegment_) fail(rank_, "stream ends inside an open segment");
  finished_ = true;
  return engine_.finish();
}

OnlineReducer::OnlineReducer(const StringTable& names, const ReductionConfig& config)
    : names_(names), config_(config) {}

std::map<Rank, OnlineReducer::PerRank>::iterator OnlineReducer::ensure(Rank rank) {
  if (finished_) throw std::logic_error("online reducer: feed/ensureRank after finish");
  if (rank < 0) throw std::invalid_argument("online reducer: negative rank");
  auto it = ranks_.lower_bound(rank);
  if (it == ranks_.end() || it->first != rank) {
    PerRank pr;
    pr.policy = config_.makePolicy();
    pr.reducer = std::make_unique<OnlineRankReducer>(rank, names_, *pr.policy);
    it = ranks_.emplace_hint(it, rank, std::move(pr));
  }
  return it;
}

void OnlineReducer::ensureRank(Rank rank) { ensure(rank); }

void OnlineReducer::feed(Rank rank, const RawRecord& record) {
  if (lastReducer_ == nullptr || lastRank_ != rank) {
    lastReducer_ = ensure(rank)->second.reducer.get();
    lastRank_ = rank;
  }
  lastReducer_->feed(record);
}

ReductionResult OnlineReducer::finish(const ProgressFn& progress) {
  if (finished_) throw std::logic_error("online reducer: finish called twice");
  finished_ = true;
  lastReducer_ = nullptr;  // route post-finish feeds into ensure()'s guard
  lastRank_.reset();

  const std::size_t numRanks = ranks_.size();

  // The map iterates in rank-id order; finishing each slot is independent
  // (per-rank policy and store), so the finishes can run on any worker while
  // the indexed writes keep assembly deterministic.
  std::vector<OnlineRankReducer*> reducers;
  reducers.reserve(numRanks);
  for (auto& [rank, pr] : ranks_) reducers.push_back(pr.reducer.get());

  std::vector<RankReduced> reducedByIndex(numRanks);
  runSharded(
      config_.executor, numRanks,
      [&](std::size_t, std::size_t i) { reducedByIndex[i] = reducers[i]->finish(); },
      progress);

  std::vector<ReductionStats> statsByIndex;
  std::vector<MatchCounters> countersByIndex;
  statsByIndex.reserve(numRanks);
  countersByIndex.reserve(numRanks);
  for (const OnlineRankReducer* r : reducers) {
    statsByIndex.push_back(r->stats());  // totals set by finish()
    countersByIndex.push_back(r->counters());
  }
  return assembleReduction(names_, std::move(reducedByIndex), statsByIndex,
                           countersByIndex);
}

}  // namespace tracered::core
