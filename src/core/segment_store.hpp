// Store of representative segments for one rank (the paper's
// `storedSegments` list), bucketed by segment signature so that candidate
// lookup is linear in the (small) number of representatives that could
// possibly match rather than all representatives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/segment.hpp"

namespace tracered::core {

/// Derived matching features of one segment, computed once and reused for
/// every comparison the segment participates in (candidate side: once per
/// consume(), into a scratch instance whose capacity carries over from the
/// previous candidate; stored side: once per representative via
/// FeatureCache).
struct SegmentFeatures {
  std::vector<double> vec;  ///< Method-specific feature vector (the metric
                            ///< methods only; the element-wise methods walk
                            ///< the segments directly in the full test).
  double norm = 0.0;        ///< Pruning norm: L1/L2/L-inf of `vec`.
  double maxAbs = 0.0;      ///< Largest |measurement| — the Eq. 1
                            ///< denominator.
};

/// Stored-side cache of SegmentFeatures, indexed by SegmentId (dense, store
/// order — same ids as the owning SegmentStore). Policies populate it from
/// their onStored hook; getOrCompute() fills lazily for representatives
/// added behind the policy's back, so manual SegmentStore::add calls keep
/// working. Like the policies that own it, the cache is per reduction run
/// and cleared on beginRank().
class FeatureCache {
 public:
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  bool has(SegmentId id) const {
    return id < entries_.size() && entries_[id].has_value();
  }

  void put(SegmentId id, SegmentFeatures features) {
    if (entries_.size() <= id) entries_.resize(id + 1);
    entries_[id] = std::move(features);
  }

  /// Features for `id`; throws std::logic_error on a miss. The read-only
  /// lookup for concurrent readers of a synced cache — unlike getOrCompute,
  /// it never resizes or writes.
  const SegmentFeatures& get(SegmentId id) const {
    if (!has(id))
      throw std::logic_error("feature cache: no features for segment " +
                             std::to_string(id) + " (bucket not synced)");
    return *entries_[id];
  }

  /// Features for `id`, computing and caching them via `compute` on a miss.
  template <typename Fn>
  const SegmentFeatures& getOrCompute(SegmentId id, Fn&& compute) {
    if (entries_.size() <= id) entries_.resize(id + 1);
    if (!entries_[id].has_value()) entries_[id] = compute();
    return *entries_[id];
  }

 private:
  std::vector<std::optional<SegmentFeatures>> entries_;
};

/// Per-rank representative store. Ids are dense indices in store order.
///
/// Every store carries a process-unique `generation()` token, renewed by
/// `clear()`: derived state keyed by SegmentId (a policy's FeatureCache and
/// match indexes) records the (store, generation) pair it was built against
/// and discards itself when either changes, so clearing a store can never
/// leak stale features onto the reused ids.
class SegmentStore {
 public:
  SegmentStore();

  /// Adds a new representative: an owning copy that keeps the relative
  /// event times and gets absStart reset to 0 (the representative stands for
  /// all executions, not a particular one). Returns the assigned id.
  SegmentId add(const SegmentView& segment);

  /// Same, with the segment's signature already computed (hashing the event
  /// list is part of the per-segment hot path; callers that already hold the
  /// hash should not pay for it twice).
  SegmentId add(const SegmentView& segment, std::uint64_t signature);

  /// Slot of a signature no representative has.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Dense slot of `sig`'s bucket, or kNoSlot. Each signature gets the next
  /// slot on its first add, so slots run 0 .. bucketCount()-1 in order of
  /// first appearance and never move until clear(). This is the one hash
  /// probe of a candidate's match: policies keep their per-bucket state in
  /// vectors indexed by slot and read the ids through bucketAt.
  std::size_t slotOf(std::uint64_t sig) const {
    const auto it = slots_.find(sig);
    return it == slots_.end() ? kNoSlot : it->second;
  }

  /// Representatives in bucket `slot` (requires slot < bucketCount()), in
  /// store order — the paper's algorithm scans stored segments in order and
  /// takes the first match. Candidates still need a `compatible` check to
  /// guard against hash collisions.
  const std::vector<SegmentId>& bucketAt(std::size_t slot) const {
    return buckets_[slot];
  }

  /// Distinct signatures stored: the number of slots.
  std::size_t bucketCount() const { return buckets_.size(); }

  /// bucketAt(slotOf(sig)), or an empty bucket when `sig` has no slot.
  const std::vector<SegmentId>& bucket(std::uint64_t sig) const;

  const Segment& segment(SegmentId id) const { return segments_.at(id); }
  Segment& segment(SegmentId id) { return segments_.at(id); }

  std::size_t size() const { return segments_.size(); }
  /// Events owned by the representatives, summed.
  std::size_t eventCount() const { return eventCount_; }
  std::vector<Segment> takeAll() && { return std::move(segments_); }

  /// Removes every representative, bucket and slot, and renews
  /// generation() so any policy-side derived state (FeatureCache, match
  /// indexes, slot-indexed vectors) built against this store invalidates
  /// itself instead of serving stale features for the reused ids and slots
  /// (regression-tested).
  void clear();

  /// Process-unique token identifying this store's current id space (new
  /// value per construction and per clear()).
  std::uint64_t generation() const { return generation_; }

 private:
  std::vector<Segment> segments_;
  std::size_t eventCount_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> slots_;  ///< Signature -> slot.
  std::vector<std::vector<SegmentId>> buckets_;           ///< Indexed by slot.
  std::uint64_t generation_;
  static const std::vector<SegmentId> kEmpty;
};

}  // namespace tracered::core
