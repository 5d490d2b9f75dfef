// Sublinear matching support: the per-bucket indexes the accelerated
// Sec. 3.1 loop queries instead of scanning every stored representative,
// plus the conservative bound arithmetic they share.
//
// Three structures, one per method family (see README "Accelerated
// matching" for the bound derivations):
//
//   * MetricBucketIndex — for the metric methods (Manhattan, Euclidean,
//     Chebyshev, avgWave, haarWave), whose acceptance test is
//     dist(a, b) <= threshold * max(maxAbs_a, maxAbs_b) (Eq. 1). A candidate
//     first computes its *norm window* (reverse triangle inequality: any
//     accepted pair has |‖a‖ - ‖b‖| <= dist <= bound, so out-of-window
//     entries are provably dissimilar); a side array of sorted norms decides
//     in O(log n) whether the window is empty (the common case for a
//     representative-dense bucket) before anything is walked. Survivors are
//     visited in store order — preserving the Sec. 3.1 loop's first-match
//     short-circuit exactly — with the per-entry norm bound and
//     triangle-inequality pivot bounds (|d(c,p) - d(r,p)| <= d(c,r) for
//     pivots p chosen among the representatives) pruning entries before any
//     exact distance.
//   * EndIntervalIndex — for the element-wise methods (relDiff, absDiff),
//     whose full test includes the segment-end pair as one conjunct. The
//     admissible end window (exact threshold algebra per method, widened by
//     a floating-point margin) filters a store-order walk the same way,
//     with the same O(log n) empty-window exit over sorted end keys.
//   * CompatClassIndex — for iter_k, which needs the count of compatible
//     representatives, not a distance. Bucket entries are folded into
//     compatibility classes (compatibility is an equivalence), so a query
//     compares against one exemplar per class instead of every entry.
//
// All three sync lazily against the owning store's bucket (entries appended
// since the last query are folded in first), so representatives added behind
// the policy's back — manual SegmentStore::add calls — keep working.
//
// Every bound is conservative BY CONSTRUCTION: it may only exclude pairs the
// exact comparison would provably reject (a floating-point safety margin
// covers rounding in the bound's derivation), so the surviving candidates
// always contain the first match of the literal Sec. 3.1 scan and indexed
// results are bit-identical to the unindexed loop. Tested as a property in
// match_index_test and as whole-registry differential sweeps in
// matching_cache_test.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/segment_store.hpp"

namespace tracered::core {

/// Matching-loop instrumentation. Deterministic per rank (the scan is a pure
/// function of the rank's segments and the config), so totals agree across
/// the serial, parallel, and online drivers.
struct MatchCounters {
  std::size_t comparisons = 0;  ///< Stored representatives examined by
                                ///< tryMatch (reached any per-entry work).
  std::size_t indexVisited = 0;  ///< Entries that survived every index bound
                                 ///< and received the exact comparison.
  std::size_t indexPruned = 0;   ///< Entries the index excluded: outside the
                                 ///< norm/end window (never visited) or
                                 ///< rejected by a per-entry pivot bound.
  std::size_t pivotDistEvals = 0;  ///< Exact distance evaluations the index
                                   ///< itself performed (pivot maintenance +
                                   ///< candidate-to-pivot distances).

  void merge(const MatchCounters& other) {
    comparisons += other.comparisons;
    indexVisited += other.indexVisited;
    indexPruned += other.indexPruned;
    pivotDistEvals += other.pivotDistEvals;
  }

  /// indexPruned / (indexPruned + indexVisited): of all entries the index
  /// decided about, the fraction excluded before any exact comparison.
  /// 0 when the index never ran (e.g. every bucket below activation).
  double indexPruneRate() const {
    const std::size_t decided = indexPruned + indexVisited;
    return decided == 0
               ? 0.0
               : static_cast<double>(indexPruned) / static_cast<double>(decided);
  }

  /// Exact similarity evaluations: entries that got the full comparison plus
  /// the distances the index computed itself — the number the literal loop
  /// pays once per representative scanned.
  std::size_t exactEvals() const { return indexVisited + pivotDistEvals; }

  friend MatchCounters operator-(MatchCounters a, const MatchCounters& b) {
    a.comparisons -= b.comparisons;
    a.indexVisited -= b.indexVisited;
    a.indexPruned -= b.indexPruned;
    a.pivotDistEvals -= b.pivotDistEvals;
    return a;
  }
  friend bool operator==(const MatchCounters&, const MatchCounters&) = default;
};

/// Conservative comparison for index bounds and pre-filters: true only when
/// `value` exceeds `bound` by more than a safety margin covering
/// floating-point rounding in the bound's derivation. `scale` is the
/// magnitude of the quantities the derivation subtracted (e.g. the two
/// norms), whose cancellation dominates the rounding error; the margin (1e-9
/// relative) sits orders of magnitude above the worst accumulation error of
/// any realistic vector length, so a bound can never reject a pair the full
/// test would accept — it only passes borderline pairs through to the exact
/// comparison.
bool provablyExceeds(double value, double bound, double scale);

/// Closed admissible interval for a scalar sort key (pruning norm or end
/// measurement). Conservative: a key outside [lo, hi] provably cannot
/// belong to an accepted pair.
struct KeyWindow {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double key) const { return key >= lo && key <= hi; }
};

/// Admissible stored-norm window for a candidate with pruning norm `norm`
/// and Eq. 1 denominator contribution `maxAbs` under `threshold`, for any
/// metric whose pruning norm satisfies maxAbs(v) <= ‖v‖ (true for L1, L2 and
/// L-inf): an accepted representative r has
/// |‖c‖ - ‖r‖| <= dist <= threshold * max(maxAbs_c, maxAbs_r), and
/// maxAbs_r <= ‖r‖ closes the case where r's measurements dominate.
KeyWindow admissibleNormWindow(double norm, double maxAbs, double threshold);

/// Admissible stored-end window for absDiff's end conjunct
/// |end_c - end_r| <= threshold.
KeyWindow admissibleEndWindowAbs(double end, double threshold);

/// Admissible stored-end window for relDiff's end conjunct
/// |end_c - end_r| / max(end_c, end_r) <= threshold (ends are >= 0; a
/// threshold >= 1 admits every end, since relDiff never exceeds 1).
KeyWindow admissibleEndWindowRel(double end, double threshold);

/// Triangle-inequality pivot bound: d(c, r) >= |d(c, p) - d(r, p)|, so the
/// pair provably fails Eq. 1 when that gap exceeds the acceptance bound
/// (with the floating-point margin of provablyExceeds).
bool pivotBoundRejects(double candToPivot, double storedToPivot, double bound);

/// Per-bucket index for the metric methods: store-order entries carrying
/// (norm, maxAbs, pivot distances), plus a sorted norm array for the
/// empty-window early exit. Pivots activate once a bucket holds
/// kPivotActivation entries (below that, the norm window plus the per-entry
/// norm bound already reduce the scan to almost nothing and pivot distances
/// would cost more than they save).
///
/// The hot methods are templates over their callables (rather than taking
/// std::function) so the per-candidate sync/query pair costs no type-erasure
/// allocations — the matching loop calls them once per candidate segment.
class MetricBucketIndex {
 public:
  static constexpr std::size_t kNumPivots = 2;
  static constexpr std::size_t kPivotActivation = 8;

  /// Folds bucket entries appended since the last sync into the index.
  /// `features(id)` returns the features of a stored representative (backed
  /// by the policy's FeatureCache); `distance` is the exact pairwise
  /// distance on prepared features. Pivot-distance maintenance counts into
  /// `counters.pivotDistEvals`.
  template <typename FeaturesFn, typename DistanceFn>
  void sync(const std::vector<SegmentId>& bucket, const FeaturesFn& features,
            const DistanceFn& distance, MatchCounters& counters) {
    for (std::size_t i = synced_; i < bucket.size(); ++i) {
      const SegmentId id = bucket[i];
      const SegmentFeatures& f = features(id);
      Entry e;
      e.norm = f.norm;
      e.maxAbs = f.maxAbs;
      e.id = id;
      if (!pivotIds_.empty()) {
        e.pivotDist.reserve(pivotIds_.size());
        for (SegmentId p : pivotIds_) {
          e.pivotDist.push_back(distance(f, features(p)));
          ++counters.pivotDistEvals;
        }
      }
      sortedNorms_.insert(
          std::upper_bound(sortedNorms_.begin(), sortedNorms_.end(), e.norm),
          e.norm);
      entries_.push_back(std::move(e));
    }
    synced_ = bucket.size();
    if (pivotIds_.empty() && entries_.size() >= kPivotActivation)
      activatePivots(features, distance, counters);
  }

  /// Queries for the first (in store order) representative accepted by
  /// `exactAccept`. An empty norm window returns immediately (O(log n));
  /// otherwise entries are walked in store order — the Sec. 3.1 loop's scan
  /// order, so the first-match short-circuit is preserved exactly — with
  /// out-of-window entries skipped and survivors pruned by the per-entry
  /// norm bound and the pivot bounds before any exact distance.
  /// `compatible` is the signature-collision guard; `exactAccept` must be
  /// the policy's exact acceptance test. Candidate-to-pivot distances are
  /// computed lazily (only when some entry survives the norm bound) and
  /// count into pivotDistEvals.
  template <typename FeaturesFn, typename DistanceFn, typename CompatibleFn,
            typename ExactFn>
  std::optional<SegmentId> query(const SegmentFeatures& candidate,
                                 double threshold, const FeaturesFn& features,
                                 const DistanceFn& distance,
                                 const CompatibleFn& compatible,
                                 const ExactFn& exactAccept,
                                 MatchCounters& counters) const {
    const KeyWindow window =
        admissibleNormWindow(candidate.norm, candidate.maxAbs, threshold);
    // Empty window — no stored norm can belong to an accepted pair — decided
    // in O(log n) without touching any entry.
    const auto lo =
        std::lower_bound(sortedNorms_.begin(), sortedNorms_.end(), window.lo);
    if (lo == sortedNorms_.end() || *lo > window.hi) {
      counters.indexPruned += entries_.size();
      return std::nullopt;
    }

    // Candidate-to-pivot distances, computed only once some entry survives
    // the per-entry norm bound (a query whose entries the norm bounds empty
    // never pays for them).
    std::array<double, kNumPivots> candToPivot{};
    std::size_t pivotsReady = 0;

    for (const Entry& e : entries_) {
      if (!window.contains(e.norm)) {
        ++counters.indexPruned;
        continue;
      }
      ++counters.comparisons;
      if (!compatible(e.id)) continue;
      const double bound = threshold * std::max(candidate.maxAbs, e.maxAbs);
      if (provablyExceeds(std::fabs(candidate.norm - e.norm), bound,
                          candidate.norm + e.norm)) {
        ++counters.indexPruned;
        continue;
      }
      bool rejected = false;
      for (std::size_t j = 0; j < e.pivotDist.size(); ++j) {
        while (pivotsReady <= j) {
          candToPivot[pivotsReady] =
              distance(candidate, features(pivotIds_[pivotsReady]));
          ++counters.pivotDistEvals;
          ++pivotsReady;
        }
        if (pivotBoundRejects(candToPivot[j], e.pivotDist[j], bound)) {
          ++counters.indexPruned;
          rejected = true;
          break;
        }
      }
      if (rejected) continue;
      ++counters.indexVisited;
      if (exactAccept(e.id)) return e.id;
    }
    return std::nullopt;
  }

  std::size_t entries() const { return entries_.size(); }
  std::size_t pivots() const { return pivotIds_.size(); }

 private:
  struct Entry {
    double norm = 0.0;
    double maxAbs = 0.0;
    SegmentId id = 0;
    std::vector<double> pivotDist;  ///< Distance to each active pivot.
  };

  template <typename FeaturesFn, typename DistanceFn>
  void activatePivots(const FeaturesFn& features, const DistanceFn& distance,
                      MatchCounters& counters) {
    // First pivot: the bucket's first stored representative (deterministic
    // and "central" by construction — everything similar to it matched
    // instead of being stored). Second pivot: the representative farthest
    // from the first (ties broken toward the smaller id), which separates
    // what the first pivot cannot.
    SegmentId first = entries_.front().id;
    for (const Entry& e : entries_) first = std::min(first, e.id);
    pivotIds_.push_back(first);
    const SegmentFeatures& f0 = features(first);
    double farthest = -1.0;
    SegmentId second = first;
    for (Entry& e : entries_) {
      const double d = distance(features(e.id), f0);
      ++counters.pivotDistEvals;
      e.pivotDist.assign(1, d);
      if (d > farthest || (d == farthest && e.id < second)) {
        farthest = d;
        second = e.id;
      }
    }
    if (second == first) return;  // degenerate bucket: all entries coincide
    pivotIds_.push_back(second);
    const SegmentFeatures& f1 = features(second);
    for (Entry& e : entries_) {
      e.pivotDist.push_back(distance(features(e.id), f1));
      ++counters.pivotDistEvals;
    }
  }

  std::vector<Entry> entries_;       ///< Store order (the bucket's order).
  std::vector<double> sortedNorms_;  ///< Ascending, for the window early exit.
  std::vector<SegmentId> pivotIds_;  ///< Empty until activation.
  std::size_t synced_ = 0;           ///< Bucket entries folded so far.
};

/// Per-bucket index for the element-wise methods: end keys in store order
/// for the window-filtered walk, plus the same sorted side array for the
/// O(log n) empty-window exit. Like MetricBucketIndex's pivot activation,
/// kActivation is the bucket population below which callers should prefer a
/// plain scan — index bookkeeping (hash lookup, sync,
/// binary searches) costs more than it can save on a near-empty bucket.
class EndIntervalIndex {
 public:
  static constexpr std::size_t kActivation = 8;
  /// Folds bucket entries appended since the last sync; `key` maps an id to
  /// its end measurement.
  template <typename KeyFn>
  void sync(const std::vector<SegmentId>& bucket, const KeyFn& key) {
    for (std::size_t i = synced_; i < bucket.size(); ++i) {
      const double k = key(bucket[i]);
      keysInOrder_.push_back(k);
      sortedKeys_.insert(
          std::upper_bound(sortedKeys_.begin(), sortedKeys_.end(), k), k);
    }
    synced_ = bucket.size();
  }

  /// Whether any stored end key lies inside `window` (binary search).
  bool anyInWindow(const KeyWindow& window) const;

  /// Whether `window` spans the entire stored key range — nothing can be
  /// pruned for this candidate, so the caller may skip the per-entry window
  /// checks (O(1): the sorted side array's extremes).
  bool coversAll(const KeyWindow& window) const {
    return !sortedKeys_.empty() && window.lo <= sortedKeys_.front() &&
           window.hi >= sortedKeys_.back();
  }

  /// End key of the i-th bucket entry (store order).
  double keyAt(std::size_t i) const { return keysInOrder_[i]; }

  std::size_t entries() const { return keysInOrder_.size(); }

 private:
  std::vector<double> keysInOrder_;  ///< Store order (the bucket's order).
  std::vector<double> sortedKeys_;   ///< Ascending, for the window early exit.
  std::size_t synced_ = 0;
};

/// Per-bucket compatibility classes for iter_k: exemplar, member count and
/// last member of each class. Compatibility is an equivalence relation
/// (same context, same event identities in order), so comparing against one
/// exemplar per class is exact.
class CompatClassIndex {
 public:
  struct ClassCount {
    SegmentId exemplar = 0;
    SegmentId last = 0;      ///< Most recently folded member (store order).
    std::size_t count = 0;
  };

  /// Folds bucket entries appended since the last sync. `sameClass(a, b)`
  /// is the compatibility test between two stored ids; each comparison
  /// counts into `counters.comparisons`.
  template <typename SameClassFn>
  void sync(const std::vector<SegmentId>& bucket, const SameClassFn& sameClass,
            MatchCounters& counters) {
    for (std::size_t i = synced_; i < bucket.size(); ++i) {
      const SegmentId id = bucket[i];
      bool folded = false;
      for (ClassCount& c : classes_) {
        ++counters.comparisons;
        if (sameClass(c.exemplar, id)) {
          ++c.count;
          c.last = id;
          folded = true;
          break;
        }
      }
      if (!folded) classes_.push_back(ClassCount{id, id, 1});
    }
    synced_ = bucket.size();
  }

  /// The candidate's class, found by comparing against exemplars (each
  /// comparison counts into counters.comparisons and indexVisited; the
  /// class members skipped count into indexPruned). Null when no class
  /// matches.
  template <typename MatchesFn>
  const ClassCount* find(const MatchesFn& matchesExemplar,
                         MatchCounters& counters) const {
    std::size_t examined = 0;
    const ClassCount* found = nullptr;
    for (const ClassCount& c : classes_) {
      ++counters.comparisons;
      ++examined;
      if (matchesExemplar(c.exemplar)) {
        found = &c;
        break;
      }
    }
    counters.indexVisited += examined;
    counters.indexPruned += synced_ - examined;  // entries never touched
    return found;
  }

  std::size_t classes() const { return classes_.size(); }
  std::size_t entries() const { return synced_; }

 private:
  std::vector<ClassCount> classes_;
  std::size_t synced_ = 0;
};

}  // namespace tracered::core
