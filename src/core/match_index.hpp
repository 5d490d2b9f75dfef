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
//     entries are provably dissimilar). Each 64-entry store-order block
//     keeps its norms sorted beside prefix bit masks, so two searches per
//     block give its in-window entries as one mask, and a window that misses
//     a block's norm range skips the block outright. Only in-window entries
//     are visited, in store order — preserving the Sec. 3.1 loop's
//     first-match short-circuit exactly — with the per-entry norm bound and
//     triangle-inequality pivot bounds (|d(c,p) - d(r,p)| <= d(c,r) for
//     pivots p chosen among the representatives) pruning entries before any
//     exact distance. Entries are filed into compatibility classes as they
//     are synced, so a query decides compatibility once, against one
//     exemplar per class.
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
#include <bit>
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
/// comparison. Inline: the index walk calls it per visited entry and pivot.
inline bool provablyExceeds(double value, double bound, double scale) {
  return value > bound + 1e-9 * (scale + std::fabs(bound) + 1.0);
}

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
inline bool pivotBoundRejects(double candToPivot, double storedToPivot, double bound) {
  return provablyExceeds(std::fabs(candToPivot - storedToPivot), bound,
                         candToPivot + storedToPivot);
}

/// Per-bucket index for the metric methods: store-order entries carrying
/// (norm, maxAbs, compatibility class, pivot distances), plus the norms of
/// every 64-entry store-order block sorted with prefix masks, so a norm
/// window's in-window entries come out as one bit mask per block. Pivots
/// activate once a bucket holds kPivotActivation entries; below that, the
/// norm window plus the per-entry norm bound already reduce the scan to
/// almost nothing, and a plain walk costs less than pivot distances or
/// per-block searches would.
///
/// The hot methods are templates over their callables (rather than taking
/// std::function) so the per-candidate sync/query pair costs no type-erasure
/// allocations — the matching loop calls them once per candidate segment.
class MetricBucketIndex {
 public:
  static constexpr std::size_t kNumPivots = 2;
  static constexpr std::size_t kPivotActivation = 8;
  /// Store-order entries per window block: one bit each in a 64-bit mask.
  static constexpr std::size_t kBlock = 64;

  /// Folds bucket entries appended since the last sync into the index.
  /// `features(id)` returns the features of a stored representative (backed
  /// by the policy's FeatureCache); `distance` is the exact pairwise
  /// distance on prepared features; `sameClass(a, b)` is the compatibility
  /// test between two stored ids (an equivalence), which files each entry
  /// under one class exemplar. Pivot-distance maintenance counts into
  /// `counters.pivotDistEvals`; class filing counts nothing.
  template <typename FeaturesFn, typename DistanceFn, typename SameClassFn>
  void sync(const std::vector<SegmentId>& bucket, const FeaturesFn& features,
            const DistanceFn& distance, const SameClassFn& sameClass,
            MatchCounters& counters) {
    for (std::size_t i = synced_; i < bucket.size(); ++i) {
      const SegmentId id = bucket[i];
      const SegmentFeatures& f = features(id);
      Entry e;
      e.norm = f.norm;
      e.maxAbs = f.maxAbs;
      e.id = id;
      e.compatClass = classOf(id, sameClass);
      for (std::size_t j = 0; j < pivotIds_.size(); ++j) {
        e.pivotDist[j] = distance(f, features(pivotIds_[j]));
        ++counters.pivotDistEvals;
      }
      insertBlockNorm(e.norm);
      entries_.push_back(e);
    }
    synced_ = bucket.size();
    if (pivotIds_.empty() && entries_.size() >= kPivotActivation)
      activatePivots(features, distance, counters);
  }

  /// Queries for the first (in store order) representative accepted by
  /// `exactAccept`, visiting only the entries inside the candidate's norm
  /// window, in store order — the Sec. 3.1 loop's scan order, so the
  /// first-match short-circuit is preserved exactly. A window that misses
  /// every block's norm range returns without touching an entry. Visited
  /// entries are pruned by the per-entry norm bound and the pivot bounds
  /// before any exact distance.
  ///
  /// `compatible(id)` is the signature-collision guard; it is called only
  /// on class exemplars, once per class at most, the first time an entry is
  /// visited. `exactAccept` must be the policy's exact acceptance test.
  /// Candidate-to-pivot distances are computed lazily (only when some entry
  /// survives the norm bound) and count into pivotDistEvals.
  ///
  /// The counters equal the per-entry walk's: each visited entry counts one
  /// comparison, and each out-of-window entry before the match (every one,
  /// without a match) counts one indexPruned.
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

    // The candidate's compatibility class, resolved on the first visited
    // entry (kNoClass: compatible with no entry of the bucket).
    std::size_t candClass = kUnresolved;
    // Candidate-to-pivot distances, computed only once some entry survives
    // the per-entry norm bound (a query whose entries the norm bounds empty
    // never pays for them).
    std::array<double, kNumPivots> candToPivot{};
    std::size_t pivotsReady = 0;

    // One in-window entry: true when it is the match. Every prune it
    // decides counts here; the window's own prunes count in the walks.
    const auto visit = [&](const Entry& e) {
      ++counters.comparisons;
      if (candClass == kUnresolved) candClass = classOfCandidate(compatible);
      if (e.compatClass != candClass) return false;
      const double bound = threshold * std::max(candidate.maxAbs, e.maxAbs);
      if (provablyExceeds(std::fabs(candidate.norm - e.norm), bound,
                          candidate.norm + e.norm)) {
        ++counters.indexPruned;
        return false;
      }
      for (std::size_t j = 0; j < pivotIds_.size(); ++j) {
        if (pivotsReady <= j) {
          candToPivot[j] = distance(candidate, features(pivotIds_[j]));
          ++counters.pivotDistEvals;
          pivotsReady = j + 1;
        }
        if (pivotBoundRejects(candToPivot[j], e.pivotDist[j], bound)) {
          ++counters.indexPruned;
          return false;
        }
      }
      ++counters.indexVisited;
      return exactAccept(e.id);
    };

    const std::size_t n = entries_.size();
    if (pivotIds_.empty()) {
      // Below pivot activation the bucket is one short block: a walk that
      // tests each norm costs less than the block's two searches.
      static_assert(kPivotActivation <= kBlock);
      if (n == 0 || !overlaps(0, n, window)) {
        counters.indexPruned += n;
        return std::nullopt;
      }
      for (const Entry& e : entries_) {
        if (!window.contains(e.norm)) {
          ++counters.indexPruned;
          continue;
        }
        if (visit(e)) return e.id;
      }
      return std::nullopt;
    }

    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t count = std::min(kBlock, n - base);
      std::uint64_t mask = inWindowMask(base, count, window);
      std::size_t visited = 0;  // in-window entries of this block so far
      while (mask != 0) {
        const auto offset = static_cast<std::size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        const Entry& e = entries_[base + offset];
        if (visit(e)) {
          counters.indexPruned += offset - visited;
          return e.id;
        }
        ++visited;
      }
      counters.indexPruned += count - visited;
    }
    return std::nullopt;
  }

  std::size_t entries() const { return entries_.size(); }
  std::size_t pivots() const { return pivotIds_.size(); }
  const std::vector<SegmentId>& pivotIds() const { return pivotIds_; }
  std::size_t classes() const { return exemplars_.size(); }

 private:
  static constexpr std::size_t kUnresolved = ~std::size_t{0};
  static constexpr std::size_t kNoClass = kUnresolved - 1;

  struct Entry {
    double norm = 0.0;
    double maxAbs = 0.0;
    std::array<double, kNumPivots> pivotDist{};  ///< First pivots() valid.
    SegmentId id = 0;
    std::uint32_t compatClass = 0;  ///< Index into exemplars_.
  };

  /// The class of the entry about to be appended: the first class whose
  /// exemplar `sameClass` accepts, else a new class with this entry as its
  /// exemplar. Normally the first exemplar accepts.
  template <typename SameClassFn>
  std::uint32_t classOf(SegmentId id, const SameClassFn& sameClass) {
    for (std::size_t c = 0; c < exemplars_.size(); ++c)
      if (sameClass(exemplars_[c], id)) return static_cast<std::uint32_t>(c);
    exemplars_.push_back(id);
    return static_cast<std::uint32_t>(exemplars_.size() - 1);
  }

  /// The candidate's class: one `compatible` call per class at most,
  /// kNoClass when it belongs to none.
  template <typename CompatibleFn>
  std::size_t classOfCandidate(const CompatibleFn& compatible) const {
    for (std::size_t c = 0; c < exemplars_.size(); ++c)
      if (compatible(exemplars_[c])) return c;
    return kNoClass;
  }

  /// Files the norm of the entry about to be appended into its block's
  /// sorted norms and prefix masks.
  void insertBlockNorm(double norm);

  /// Whether the block at `base` (`count` entries) holds any norm that
  /// `window` could contain: its sorted range meets the window.
  bool overlaps(std::size_t base, std::size_t count, const KeyWindow& window) const {
    return blockSorted_[base].norm <= window.hi &&
           blockSorted_[base + count - 1].norm >= window.lo;
  }

  /// Bit i set iff entry base + i's norm lies inside `window`: the block's
  /// sorted norms inside it run from the first >= lo to the last <= hi, and
  /// the prefix masks name their store offsets.
  std::uint64_t inWindowMask(std::size_t base, std::size_t count,
                             const KeyWindow& window) const {
    if (!overlaps(base, count, window)) return 0;
    const auto first = blockSorted_.begin() + static_cast<std::ptrdiff_t>(base);
    const auto last = first + static_cast<std::ptrdiff_t>(count);
    const auto below = [&](auto it) {  // store offsets of the sorted norms before `it`
      return it == first ? std::uint64_t{0} : std::prev(it)->atOrBelow;
    };
    const auto above = std::upper_bound(
        first, last, window.hi, [](double v, const SortedNorm& s) { return v < s.norm; });
    const auto from = std::lower_bound(
        first, last, window.lo, [](const SortedNorm& s, double v) { return s.norm < v; });
    return below(above) & ~below(from);
  }

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
      e.pivotDist[0] = d;
      if (d > farthest || (d == farthest && e.id < second)) {
        farthest = d;
        second = e.id;
      }
    }
    if (second == first) return;  // degenerate bucket: all entries coincide
    pivotIds_.push_back(second);
    const SegmentFeatures& f1 = features(second);
    for (Entry& e : entries_) {
      e.pivotDist[1] = distance(features(e.id), f1);
      ++counters.pivotDistEvals;
    }
  }

  /// One norm of a block, in the block's ascending norm order.
  struct SortedNorm {
    double norm = 0.0;
    /// Store offsets (within the block) of this norm and every norm sorted
    /// before it, as a bit mask.
    std::uint64_t atOrBelow = 0;
  };

  std::vector<Entry> entries_;  ///< Store order (the bucket's order).
  /// Each block of kBlock store-order entries' norms, ascending.
  std::vector<SortedNorm> blockSorted_;
  /// Each compatibility class's exemplar: its first entry's id.
  std::vector<SegmentId> exemplars_;
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
