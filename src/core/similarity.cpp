#include "core/similarity.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "wavelet/wavelet.hpp"

namespace tracered::core {

namespace {

/// maxAbs and the candidate norms of one feature vector, taken in one pass
/// in index order: the same sums, bit for bit, as one pass per statistic.
struct VecStats {
  double maxAbs = 0.0;
  double l1 = 0.0;    ///< sum of |x|
  double l2sq = 0.0;  ///< sum of x * x
};

VecStats statsOf(const std::vector<double>& v) {
  VecStats st;
  for (const double x : v) {
    const double a = std::fabs(x);
    st.maxAbs = std::max(st.maxAbs, a);
    st.l1 += a;
    st.l2sq += x * x;
  }
  return st;
}

double endKey(const SegmentView& s) { return std::fabs(static_cast<double>(s.end)); }

}  // namespace

// ---------------------------------------------------------------------------
// DistancePolicy

std::optional<SegmentId> DistancePolicy::tryMatch(const SegmentView& candidate,
                                                  std::uint64_t signature,
                                                  SegmentStore& store) {
  return queryBucket(candidate, store, syncBucket(signature, store), counters_, scratch_);
}

void DistancePolicy::sync(std::uint64_t signature, const SegmentStore& store) {
  syncBucket(signature, store);
}

std::optional<SegmentId> DistancePolicy::query(const SegmentView& candidate,
                                               std::uint64_t signature,
                                               const SegmentStore& store,
                                               MatchCounters& counters,
                                               SegmentFeatures& scratch) const {
  if (boundStore_ != &store || boundGeneration_ != store.generation())
    throw std::logic_error(name() + ": query on a store the policy is not synced to");
  const std::size_t slot = store.slotOf(signature);
  if (slot == SegmentStore::kNoSlot) return std::nullopt;
  SyncedBucket bucket{store.bucketAt(slot)};
  // The index must hold every bucket entry: one that missed the last sync
  // would silently never be compared.
  const auto synced = [&](const auto& indexes) {
    if (slot >= indexes.size() || indexes[slot].entries() != bucket.ids.size())
      throw std::logic_error(name() + ": query on a bucket that grew since its sync");
    return &indexes[slot];
  };
  if (indexKind() == IndexKind::kMetricPivot)
    bucket.metric = synced(metricIndex_);
  else if (bucket.ids.size() >= EndIntervalIndex::kActivation)
    bucket.end = synced(endIndex_);
  return queryBucket(candidate, store, bucket, counters, scratch);
}

DistancePolicy::SyncedBucket DistancePolicy::syncBucket(std::uint64_t signature,
                                                        const SegmentStore& store) {
  // Bind before the empty-bucket return: onStored fires for this store even
  // when the candidate found nothing to compare against, and the cache it
  // writes must not mix id spaces.
  bindStore(store);
  const std::size_t slot = store.slotOf(signature);
  if (slot == SegmentStore::kNoSlot) return {};
  const std::vector<SegmentId>& ids = store.bucketAt(slot);
  SyncedBucket bucket{ids};

  if (indexKind() == IndexKind::kEndInterval) {
    // Element-wise methods prepare nothing per entry; the index serves only
    // buckets at its activation population.
    if (ids.size() < EndIntervalIndex::kActivation) return bucket;
    if (endIndex_.size() <= slot) endIndex_.resize(store.bucketCount());
    EndIntervalIndex& index = endIndex_[slot];
    index.sync(ids, [&](SegmentId id) { return endKey(store.segment(id)); });
    bucket.end = &index;
  } else {
    if (metricIndex_.size() <= slot) metricIndex_.resize(store.bucketCount());
    MetricBucketIndex& index = metricIndex_[slot];
    index.sync(ids,
               [&](SegmentId id) -> const SegmentFeatures& {
                 return cache_.getOrCompute(id, [&] { return features(store.segment(id)); });
               },
               [this](const SegmentFeatures& fa, const SegmentFeatures& fb) {
                 return indexDistance(fa, fb);
               },
               [&](SegmentId a, SegmentId b) {
                 return store.segment(a).view().compatible(store.segment(b));
               },
               counters_);
    bucket.metric = &index;
  }
  return bucket;
}

std::optional<SegmentId> DistancePolicy::queryBucket(const SegmentView& candidate,
                                                     const SegmentStore& store,
                                                     const SyncedBucket& bucket,
                                                     MatchCounters& counters,
                                                     SegmentFeatures& scratch) const {
  const std::span<const SegmentId> ids = bucket.ids;
  if (ids.empty()) return std::nullopt;
  if (indexKind() == IndexKind::kEndInterval) {
    // Store-order walk over the entries `admits` keeps — the Sec. 3.1 loop's
    // first-match short-circuit, minus the entries the end window excludes.
    // `visits` counts the survivors as index decisions.
    const auto walk = [&](auto admits, bool visits) -> std::optional<SegmentId> {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (!admits(i)) {
          ++counters.indexPruned;
          continue;
        }
        ++counters.comparisons;
        const SegmentView stored = store.segment(ids[i]);
        if (!candidate.compatible(stored)) continue;  // signature collision guard
        if (visits) ++counters.indexVisited;
        if (similar(candidate, stored)) return ids[i];
      }
      return std::nullopt;
    };
    const auto all = [](std::size_t) { return true; };
    // Below the activation population the index cannot recoup its own
    // bookkeeping — run the plain scan. Buckets only grow, so the switchover
    // happens once per bucket.
    if (bucket.end == nullptr) return walk(all, false);
    const EndIntervalIndex& index = *bucket.end;

    const KeyWindow window = admissibleEndWindow(endKey(candidate));
    if (!index.anyInWindow(window)) {
      counters.indexPruned += index.entries();
      return std::nullopt;
    }
    // A window that admits every stored end skips the per-entry checks
    // (same result, same counters).
    if (index.coversAll(window)) return walk(all, true);
    return walk([&](std::size_t i) { return window.contains(index.keyAt(i)); }, true);
  }

  const auto featuresOf = [&](SegmentId id) -> const SegmentFeatures& {
    return cache_.get(id);
  };
  featuresInto(candidate, scratch);
  const SegmentFeatures& fc = scratch;
  return bucket.metric->query(
      fc, indexThreshold(), featuresOf,
      [this](const SegmentFeatures& fa, const SegmentFeatures& fb) {
        return indexDistance(fa, fb);
      },
      [&](SegmentId id) { return candidate.compatible(store.segment(id)); },
      [&](SegmentId id) {
        return similarPrepared(candidate, fc, store.segment(id), featuresOf(id));
      },
      counters);
}

double DistancePolicy::indexDistance(const SegmentFeatures& fa,
                                     const SegmentFeatures& fb) const {
  // Signature collisions can put different-length vectors in one bucket; a
  // cross-length "distance" is meaningless for the triangle bounds, so feed
  // the index NaN — every NaN comparison is false, so the affected pivot
  // bounds simply never prune (the compatible guard keeps exactness).
  return fa.vec.size() == fb.vec.size() ? pairDistance(fa, fb)
                                        : std::numeric_limits<double>::quiet_NaN();
}

void DistancePolicy::onStored(const SegmentView& segment, SegmentId id) {
  // Element-wise methods derive everything O(1) from the segment itself; only
  // the metric methods bank features (vector + norms) for the stored side.
  if (indexKind() == IndexKind::kMetricPivot) cache_.put(id, features(segment));
}

void DistancePolicy::resetDerivedState() {
  cache_.clear();
  metricIndex_.clear();
  endIndex_.clear();
  boundStore_ = nullptr;
  boundGeneration_ = 0;
}

void DistancePolicy::bindStore(const SegmentStore& store) {
  if (boundStore_ == &store && boundGeneration_ == store.generation()) return;
  resetDerivedState();
  boundStore_ = &store;
  boundGeneration_ = store.generation();
}

SegmentFeatures DistancePolicy::features(const SegmentView& s) const {
  SegmentFeatures f;
  featuresInto(s, f);
  f.vec.shrink_to_fit();  // cached for the store's lifetime: drop any work space
  return f;
}

void DistancePolicy::featuresInto(const SegmentView&, SegmentFeatures&) const {
  throw std::logic_error(name() + ": featuresInto requires a kMetricPivot policy");
}

double DistancePolicy::pairDistance(const SegmentFeatures&,
                                    const SegmentFeatures&) const {
  throw std::logic_error(name() + ": pairDistance requires a kMetricPivot policy");
}

KeyWindow DistancePolicy::admissibleEndWindow(double) const {
  throw std::logic_error(name() + ": admissibleEndWindow requires a kEndInterval policy");
}

// ---------------------------------------------------------------------------
// relDiff

double RelDiffPolicy::relDiff(double a, double b) {
  const double denom = std::max(std::fabs(a), std::fabs(b));
  if (denom == 0.0) return 0.0;
  return std::fabs(a - b) / denom;
}

bool RelDiffPolicy::similar(const SegmentView& a, const SegmentView& b) const {
  return forEachMeasurementPair(
      a, b, [this](double x, double y) { return relDiff(x, y) <= threshold_; });
}

KeyWindow RelDiffPolicy::admissibleEndWindow(double candEnd) const {
  return admissibleEndWindowRel(candEnd, threshold_);
}

// ---------------------------------------------------------------------------
// absDiff

bool AbsDiffPolicy::similar(const SegmentView& a, const SegmentView& b) const {
  return forEachMeasurementPair(
      a, b, [this](double x, double y) { return std::fabs(x - y) <= threshold_; });
}

KeyWindow AbsDiffPolicy::admissibleEndWindow(double candEnd) const {
  return admissibleEndWindowAbs(candEnd, threshold_);
}

// ---------------------------------------------------------------------------
// Minkowski distances

std::string MinkowskiPolicy::name() const {
  switch (order_) {
    case Order::kManhattan: return "Manhattan";
    case Order::kEuclidean: return "Euclidean";
    case Order::kChebyshev: return "Chebyshev";
  }
  return "Minkowski";
}

double MinkowskiPolicy::distance(Order order, const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("minkowski distance: vector lengths differ (" +
                                std::to_string(a.size()) + " vs " +
                                std::to_string(b.size()) + ")");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    switch (order) {
      case Order::kManhattan: acc += d; break;
      case Order::kEuclidean: acc += d * d; break;
      case Order::kChebyshev: acc = std::max(acc, d); break;
    }
  }
  return order == Order::kEuclidean ? std::sqrt(acc) : acc;
}

bool MinkowskiPolicy::similar(const SegmentView& a, const SegmentView& b) const {
  return similarPrepared(a, features(a), b, features(b));
}

void MinkowskiPolicy::featuresInto(const SegmentView& s, SegmentFeatures& f) const {
  f.vec.resize(1 + 2 * s.events.size());
  writeDistanceVector(s, f.vec);
  const VecStats st = statsOf(f.vec);
  f.maxAbs = st.maxAbs;
  switch (order_) {
    case Order::kManhattan: f.norm = st.l1; break;
    case Order::kEuclidean: f.norm = std::sqrt(st.l2sq); break;
    case Order::kChebyshev: f.norm = st.maxAbs; break;
  }
}

bool MinkowskiPolicy::similarPrepared(const SegmentView&, const SegmentFeatures& fa,
                                      const SegmentView&, const SegmentFeatures& fb) const {
  const double dist = distance(order_, fa.vec, fb.vec);
  // Eq. 1's acceptance test: distance <= threshold * largest measurement in
  // the pair of vectors (Fig. 2 example: 0.2 * 51 = 10.2).
  return dist <= threshold_ * std::max(fa.maxAbs, fb.maxAbs);
}

double MinkowskiPolicy::pairDistance(const SegmentFeatures& fa,
                                     const SegmentFeatures& fb) const {
  return distance(order_, fa.vec, fb.vec);
}

// ---------------------------------------------------------------------------
// Wavelet methods

bool WaveletPolicy::similar(const SegmentView& a, const SegmentView& b) const {
  return similarPrepared(a, features(a), b, features(b));
}

void WaveletPolicy::featuresInto(const SegmentView& s, SegmentFeatures& f) const {
  // The padded time-stamp vector is written to a work buffer and transformed
  // from there straight into the features. The buffer is on the stack for
  // segments of up to 63 events; a longer signal rides behind the features
  // in `f.vec` until the transform is done, so no length allocates once the
  // scratch is warm.
  const std::size_t n = wavelet::nextPow2(2 + 2 * s.events.size());
  // Left uninitialized: writeWaveletVector writes every element the
  // transform reads, and zeroing 1 KiB per candidate would cost more than
  // the transform of a typical segment.
  std::array<double, 128> stackSignal;
  std::span<double> signal;
  if (n <= stackSignal.size()) {
    f.vec.resize(n);
    signal = std::span<double>(stackSignal).first(n);
  } else {
    f.vec.resize(2 * n);
    signal = std::span<double>(f.vec).subspan(n);
  }
  writeWaveletVector(s, signal);
  const std::span<double> out = std::span<double>(f.vec).first(n);
  if (kind_ == Kind::kAverage)
    wavelet::avgTransformInto(signal, out);
  else
    wavelet::haarTransformInto(signal, out);
  f.vec.resize(n);
  const VecStats st = statsOf(f.vec);
  f.maxAbs = st.maxAbs;
  f.norm = std::sqrt(st.l2sq);
}

bool WaveletPolicy::similarPrepared(const SegmentView&, const SegmentFeatures& fa,
                                    const SegmentView&, const SegmentFeatures& fb) const {
  const double dist = wavelet::euclideanDistance(fa.vec, fb.vec);
  return dist <= threshold_ * std::max(fa.maxAbs, fb.maxAbs);
}

double WaveletPolicy::pairDistance(const SegmentFeatures& fa,
                                   const SegmentFeatures& fb) const {
  return wavelet::euclideanDistance(fa.vec, fb.vec);
}

// ---------------------------------------------------------------------------
// iter_k

IterKPolicy::IterKPolicy(int k) : k_(k) {
  if (k < 1)
    throw std::invalid_argument("iter_k: k must be an integer >= 1, got " +
                                std::to_string(k));
}

void IterKPolicy::beginRank() {
  classIndex_.clear();
  boundStore_ = nullptr;
  boundGeneration_ = 0;
}

std::optional<SegmentId> IterKPolicy::tryMatch(const SegmentView& candidate,
                                               std::uint64_t signature,
                                               SegmentStore& store) {
  if (boundStore_ != &store || boundGeneration_ != store.generation()) {
    classIndex_.clear();
    boundStore_ = &store;
    boundGeneration_ = store.generation();
  }
  const std::size_t slot = store.slotOf(signature);
  if (slot == SegmentStore::kNoSlot) return std::nullopt;
  // Compatibility is an equivalence relation, so one comparison per class
  // exemplar answers both "how many compatible representatives exist" and
  // "which was stored last" — identical to the counting loop's result.
  if (classIndex_.size() <= slot) classIndex_.resize(store.bucketCount());
  CompatClassIndex& index = classIndex_[slot];
  index.sync(
      store.bucketAt(slot),
      [&](SegmentId a, SegmentId b) {
        return store.segment(a).view().compatible(store.segment(b));
      },
      counters_);
  const CompatClassIndex::ClassCount* cls = index.find(
      [&](SegmentId exemplar) {
        return candidate.compatible(store.segment(exemplar));
      },
      counters_);
  if (cls == nullptr || cls->count < static_cast<std::size_t>(k_))
    return std::nullopt;
  return cls->last;
}

// ---------------------------------------------------------------------------
// iter_avg

namespace {

/// Calls `f(i, m_i)` for each measurement m = [e0.start, e0.end, ..., end].
template <typename F>
void forEachMeasurement(const SegmentView& s, F&& f) {
  std::size_t i = 0;
  for (const auto& e : s.events) {
    f(i++, static_cast<double>(e.start));
    f(i++, static_cast<double>(e.end));
  }
  f(i, static_cast<double>(s.end));
}

}  // namespace

std::optional<SegmentId> IterAvgPolicy::tryMatch(const SegmentView& candidate,
                                                 std::uint64_t signature,
                                                 SegmentStore& store) {
  for (SegmentId id : store.bucket(signature)) {
    ++counters_.comparisons;
    if (!candidate.compatible(store.segment(id))) continue;
    Acc& a = acc_.at(id);
    forEachMeasurement(candidate, [&](std::size_t i, double m) { a.sums[i] += m; });
    ++a.count;
    return id;
  }
  return std::nullopt;
}

void IterAvgPolicy::onStored(const SegmentView& segment, SegmentId id) {
  if (acc_.size() <= id) acc_.resize(id + 1);
  Acc& a = acc_[id];
  a.sums.resize(2 * segment.events.size() + 1);
  forEachMeasurement(segment, [&](std::size_t i, double m) { a.sums[i] = m; });
  a.count = 1;
}

void IterAvgPolicy::finishRank(SegmentStore& store) {
  for (SegmentId id = 0; id < store.size(); ++id) {
    const Acc& a = acc_.at(id);
    if (a.count == 0) continue;
    Segment& s = store.segment(id);
    const double inv = 1.0 / static_cast<double>(a.count);
    std::size_t idx = 0;
    for (auto& e : s.events) {
      e.start = static_cast<TimeUs>(std::llround(a.sums[idx++] * inv));
      e.end = static_cast<TimeUs>(std::llround(a.sums[idx++] * inv));
    }
    s.end = static_cast<TimeUs>(std::llround(a.sums[idx] * inv));
  }
}

}  // namespace tracered::core
