#include "core/segment_store.hpp"

#include <atomic>

namespace tracered::core {

const std::vector<SegmentId> SegmentStore::kEmpty;

namespace {

/// Never reused across stores or clears in one process, so a (store pointer,
/// generation) pair uniquely identifies an id space even if a new store is
/// allocated at a destroyed store's address.
std::uint64_t nextGeneration() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SegmentStore::SegmentStore() : generation_(nextGeneration()) {}

SegmentId SegmentStore::add(const SegmentView& segment) {
  return add(segment, segment.signature());
}

SegmentId SegmentStore::add(const SegmentView& segment, std::uint64_t signature) {
  const SegmentId id = static_cast<SegmentId>(segments_.size());
  segments_.push_back(Segment{segment.context, segment.rank, /*absStart=*/0, segment.end,
                              {segment.events.begin(), segment.events.end()}});
  eventCount_ += segment.events.size();
  const auto [slot, isNew] = slots_.try_emplace(signature, buckets_.size());
  if (isNew) buckets_.emplace_back();
  buckets_[slot->second].push_back(id);
  return id;
}

void SegmentStore::clear() {
  segments_.clear();
  eventCount_ = 0;
  slots_.clear();
  buckets_.clear();
  generation_ = nextGeneration();
}

const std::vector<SegmentId>& SegmentStore::bucket(std::uint64_t sig) const {
  const std::size_t slot = slotOf(sig);
  return slot == kNoSlot ? kEmpty : buckets_[slot];
}

}  // namespace tracered::core
