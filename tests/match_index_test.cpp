// The sublinear-matching index layer in isolation: the conservative-bound
// property (no window or pivot bound may ever reject a pair the exact
// comparison accepts — the invariant that makes indexed matching
// bit-identical by construction), exercised over randomized vectors at every
// interesting threshold, plus differential and unit tests for the three
// index structures themselves (MetricBucketIndex vs the linear first-match
// scan, EndIntervalIndex window queries, CompatClassIndex folding).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/match_index.hpp"
#include "core/segment_store.hpp"
#include "util/rng.hpp"

namespace tracered::core {
namespace {

double maxAbsOf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double l1Norm(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += std::fabs(x);
  return acc;
}

double l2Norm(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double minkowski(int order, const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (order == 1) acc += d;
    else if (order == 2) acc += d * d;
    else acc = std::max(acc, d);
  }
  return order == 2 ? std::sqrt(acc) : acc;
}

double normOf(int order, const std::vector<double>& v) {
  return order == 1 ? l1Norm(v) : order == 2 ? l2Norm(v) : maxAbsOf(v);
}

std::vector<double> randomVec(SplitMix64& rng, std::size_t len, double scale) {
  std::vector<double> v(len);
  for (double& x : v) x = rng.nextDouble() * scale;
  return v;
}

// The invariant everything rests on: for ANY pair the exact Eq. 1 test
// accepts, the candidate's norm window must contain the stored norm and no
// pivot bound may fire — across all three Minkowski orders, thresholds from
// 0 through >= 1, and vectors spanning several orders of magnitude
// (including near-identical pairs, where cancellation error is worst).
TEST(MatchIndexProperty, NormWindowAndPivotBoundNeverRejectAcceptedPairs) {
  SplitMix64 rng(0x5eed0001);
  const double thresholds[] = {0.0, 0.01, 0.2, 0.5, 0.9, 1.0, 2.5};
  std::size_t accepted = 0;
  for (int order : {1, 2, 3}) {
    for (double thr : thresholds) {
      for (int trial = 0; trial < 400; ++trial) {
        const std::size_t len = static_cast<std::size_t>(rng.nextInt(1, 9));
        const double scale = std::pow(10.0, static_cast<double>(rng.nextInt(0, 6)));
        const std::vector<double> c = randomVec(rng, len, scale);
        // Half the trials perturb the candidate (likely-accepted pairs);
        // half draw independently (likely-rejected — exercised for the
        // accepted minority at large thresholds).
        std::vector<double> r = c;
        if (rng.nextInt(0, 1) == 0) {
          for (double& x : r) x += (rng.nextDouble() - 0.5) * scale * thr;
        } else {
          r = randomVec(rng, len, scale);
        }
        const std::vector<double> p = randomVec(rng, len, scale);

        const double maxC = maxAbsOf(c), maxR = maxAbsOf(r);
        const double bound = thr * std::max(maxC, maxR);
        if (minkowski(order, c, r) > bound) continue;  // pair not accepted
        ++accepted;

        const KeyWindow w = admissibleNormWindow(normOf(order, c), maxC, thr);
        EXPECT_TRUE(w.contains(normOf(order, r)))
            << "order " << order << " thr " << thr << " trial " << trial;
        EXPECT_FALSE(pivotBoundRejects(minkowski(order, c, p),
                                       minkowski(order, r, p), bound))
            << "order " << order << " thr " << thr << " trial " << trial;
      }
    }
  }
  // The generator must actually produce accepted pairs, or the test is vacuous.
  EXPECT_GT(accepted, 1000u);
}

TEST(MatchIndexProperty, EndWindowsNeverRejectAcceptedEnds) {
  SplitMix64 rng(0x5eed0002);
  const double thresholds[] = {0.0, 0.15, 0.5, 0.99, 1.0, 5.0};
  for (double thr : thresholds) {
    for (int trial = 0; trial < 2000; ++trial) {
      const double scale = std::pow(10.0, static_cast<double>(rng.nextInt(0, 7)));
      const double endC = rng.nextDouble() * scale;
      const double endR = rng.nextInt(0, 3) == 0
                              ? endC + (rng.nextDouble() - 0.5) * thr * scale
                              : rng.nextDouble() * scale;
      if (endR < 0.0) continue;  // end measurements are non-negative

      if (std::fabs(endC - endR) <= thr) {
        EXPECT_TRUE(admissibleEndWindowAbs(endC, thr).contains(endR))
            << "abs thr " << thr << " ends " << endC << " vs " << endR;
      }

      const double denom = std::max(endC, endR);
      const double rel = denom == 0.0 ? 0.0 : std::fabs(endC - endR) / denom;
      if (rel <= thr) {
        EXPECT_TRUE(admissibleEndWindowRel(endC, thr).contains(endR))
            << "rel thr " << thr << " ends " << endC << " vs " << endR;
      }
    }
  }
}

TEST(MatchIndexProperty, ZeroEndsAndZeroVectorsStayInsideTheirOwnWindows) {
  // Degenerate inputs: empty segments produce zero norms and zero ends;
  // they must still admit themselves at threshold 0.
  EXPECT_TRUE(admissibleNormWindow(0.0, 0.0, 0.0).contains(0.0));
  EXPECT_TRUE(admissibleEndWindowAbs(0.0, 0.0).contains(0.0));
  EXPECT_TRUE(admissibleEndWindowRel(0.0, 0.0).contains(0.0));
  // relDiff never exceeds 1, so thr >= 1 admits every end.
  const KeyWindow all = admissibleEndWindowRel(5.0, 1.0);
  EXPECT_TRUE(all.contains(0.0));
  EXPECT_TRUE(all.contains(1e300));
}

TEST(MatchIndex, ProvablyExceedsKeepsAMarginAboveTheBound) {
  EXPECT_FALSE(provablyExceeds(1.0, 1.0, 1.0));            // equal: not exceeded
  EXPECT_FALSE(provablyExceeds(1.0 + 1e-12, 1.0, 1.0));    // inside the margin
  EXPECT_TRUE(provablyExceeds(1.0 + 1e-6, 1.0, 1.0));      // clearly beyond
  EXPECT_FALSE(provablyExceeds(1e9 + 1.0, 1e9, 1e9));      // margin scales
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(provablyExceeds(nan, 1.0, 1.0));  // NaN never "proves" anything
}

// --------------------------------------------------------------------------
// MetricBucketIndex, driven with synthetic feature vectors under the L1
// metric (1-element vectors: distance == |a - b|), differentially against
// the linear first-match scan and against the per-entry store-order walk the
// index replaced. Each id carries a compatibility class label, so one
// bucket can hold several classes, as a signature collision would.

double l1Distance(const SegmentFeatures& a, const SegmentFeatures& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.vec.size(); ++i) acc += std::fabs(a.vec[i] - b.vec[i]);
  return acc;
}

SegmentFeatures l1Features(std::vector<double> vec) {
  SegmentFeatures f;
  f.vec = std::move(vec);
  f.norm = l1Norm(f.vec);
  f.maxAbs = maxAbsOf(f.vec);
  return f;
}

struct MetricHarness {
  std::vector<SegmentFeatures> feats;  // by id
  std::vector<int> label;              // compatibility class, by id
  std::vector<SegmentId> bucket;
  MetricBucketIndex index;
  MatchCounters counters;

  auto featuresFn() {
    return [this](SegmentId id) -> const SegmentFeatures& { return feats[id]; };
  }
  static auto distanceFn() {
    return [](const SegmentFeatures& a, const SegmentFeatures& b) {
      return l1Distance(a, b);
    };
  }

  void add(double value, int cls = 0) { add(std::vector<double>{value}, cls); }
  void add(std::vector<double> vec, int cls) {
    bucket.push_back(static_cast<SegmentId>(feats.size()));
    feats.push_back(l1Features(std::move(vec)));
    label.push_back(cls);
  }

  void sync() {
    index.sync(bucket, featuresFn(), distanceFn(),
               [this](SegmentId a, SegmentId b) { return label[a] == label[b]; },
               counters);
  }

  static bool accepts(const SegmentFeatures& c, const SegmentFeatures& f, double thr) {
    return l1Distance(c, f) <= thr * std::max(c.maxAbs, f.maxAbs);
  }

  std::optional<SegmentId> query(double value, double thr) {
    return query(l1Features({value}), 0, thr, counters);
  }
  std::optional<SegmentId> query(const SegmentFeatures& cand, int cls, double thr,
                                 MatchCounters& out) {
    return index.query(
        cand, thr, featuresFn(), distanceFn(),
        [&](SegmentId id) { return label[id] == cls; },
        [&](SegmentId id) { return accepts(cand, feats[id], thr); }, out);
  }

  std::optional<SegmentId> linearScan(double value, double thr) const {
    for (SegmentId id : bucket) {
      const SegmentFeatures& f = feats[id];
      if (std::fabs(value - f.vec[0]) <= thr * std::max(std::fabs(value), f.maxAbs))
        return id;
    }
    return std::nullopt;
  }

  // The per-entry walk the index replaced: every entry in store order, the
  // window tested per entry, compatibility tested per in-window entry, then
  // the norm and pivot bounds with lazily computed candidate-to-pivot
  // distances. Its counters are the ones the index must reproduce.
  std::optional<SegmentId> referenceWalk(const SegmentFeatures& cand, int cls, double thr,
                                         MatchCounters& out) const {
    const KeyWindow window = admissibleNormWindow(cand.norm, cand.maxAbs, thr);
    const std::vector<SegmentId>& pivots = index.pivotIds();
    std::vector<double> candToPivot;
    for (SegmentId id : bucket) {
      const SegmentFeatures& f = feats[id];
      if (!window.contains(f.norm)) {
        ++out.indexPruned;
        continue;
      }
      ++out.comparisons;
      if (label[id] != cls) continue;
      const double bound = thr * std::max(cand.maxAbs, f.maxAbs);
      if (provablyExceeds(std::fabs(cand.norm - f.norm), bound, cand.norm + f.norm)) {
        ++out.indexPruned;
        continue;
      }
      bool rejected = false;
      for (std::size_t j = 0; j < pivots.size() && !rejected; ++j) {
        if (candToPivot.size() <= j) {
          candToPivot.push_back(l1Distance(cand, feats[pivots[j]]));
          ++out.pivotDistEvals;
        }
        rejected = pivotBoundRejects(candToPivot[j], l1Distance(f, feats[pivots[j]]), bound);
      }
      if (rejected) {
        ++out.indexPruned;
        continue;
      }
      ++out.indexVisited;
      if (accepts(cand, f, thr)) return id;
    }
    return std::nullopt;
  }
};

TEST(MetricBucketIndex, MatchesLinearScanOnRandomBuckets) {
  SplitMix64 rng(0x5eed0003);
  for (int round = 0; round < 30; ++round) {
    MetricHarness h;
    const int n = static_cast<int>(rng.nextInt(1, 40));
    for (int i = 0; i < n; ++i) h.add(rng.nextDouble() * 1000.0);
    h.sync();
    for (double thr : {0.0, 0.05, 0.3, 1.0}) {
      for (int q = 0; q < 50; ++q) {
        const double value = rng.nextDouble() * 1200.0 - 100.0;
        EXPECT_EQ(h.query(value, thr), h.linearScan(value, thr))
            << "round " << round << " thr " << thr << " value " << value;
      }
    }
  }
}

// The window walk against the per-entry walk it replaced: same first match
// and the same four counter deltas on every query. Buckets grow in steps
// (each step synced, then queried) from 1 to 300 entries, so they cross
// pivot activation and the 64-entry block boundary; values are quantized
// half the time, so norms repeat; every third bucket mixes two
// compatibility classes; candidates of a third class match nothing.
TEST(MetricBucketIndex, WindowWalkMatchesThePerEntryWalkExactly) {
  SplitMix64 rng(0x5eed0004);
  std::size_t matched = 0;
  std::size_t wideQueries = 0;  // buckets with pivots and > 64 entries
  for (int round = 0; round < 60; ++round) {
    MetricHarness h;
    const bool mixed = round % 3 == 0;
    const bool quantized = round % 2 == 0;
    const auto draw = [&] {
      return quantized ? std::round(rng.nextDouble() * 20.0) * 50.0
                       : rng.nextDouble() * 1000.0;
    };
    const auto target = static_cast<std::size_t>(rng.nextInt(1, 300));
    while (h.bucket.size() < target) {
      const auto step = static_cast<std::size_t>(rng.nextInt(1, 80));
      for (std::size_t i = 0; i < step && h.bucket.size() < target; ++i)
        h.add({draw(), draw()}, mixed ? static_cast<int>(rng.nextInt(0, 1)) : 0);
      h.sync();
      std::vector<int> labels = h.label;
      std::sort(labels.begin(), labels.end());
      ASSERT_EQ(h.index.classes(),
                static_cast<std::size_t>(std::unique(labels.begin(), labels.end()) - labels.begin()));
      for (double thr : {0.0, 0.05, 0.3, 1.0}) {
        for (int q = 0; q < 10; ++q) {
          std::vector<double> vec = {draw(), draw()};
          if (q % 2 == 0) {  // near a stored entry: likely a match
            vec = h.feats[static_cast<std::size_t>(
                               rng.nextInt(0, static_cast<std::int64_t>(h.bucket.size()) - 1))]
                      .vec;
            for (double& x : vec) x += (rng.nextDouble() - 0.5) * 40.0 * thr;
          }
          const SegmentFeatures cand = l1Features(vec);
          const int cls = static_cast<int>(rng.nextInt(0, mixed ? 2 : 0));
          MatchCounters got, want;
          const auto id = h.query(cand, cls, thr, got);
          EXPECT_EQ(id, h.referenceWalk(cand, cls, thr, want))
              << "round " << round << " entries " << h.bucket.size() << " thr " << thr;
          EXPECT_EQ(got, want)
              << "round " << round << " entries " << h.bucket.size() << " thr " << thr
              << ": comparisons " << got.comparisons << "/" << want.comparisons
              << " visited " << got.indexVisited << "/" << want.indexVisited
              << " pruned " << got.indexPruned << "/" << want.indexPruned
              << " pivot evals " << got.pivotDistEvals << "/" << want.pivotDistEvals;
          matched += id.has_value() ? 1 : 0;
          wideQueries += h.index.pivots() > 0 && h.bucket.size() > 64 ? 1 : 0;
        }
      }
    }
  }
  // Not vacuous: matches are found, and wide buckets with pivots are queried.
  EXPECT_GT(matched, 500u);
  EXPECT_GT(wideQueries, 1000u);
}

// The window is closed: stored norms exactly on its edges are visited, the
// next doubles outside it are not. Entries sit in two window blocks, with
// pivots active.
TEST(MetricBucketIndex, WindowEdgesAreInclusiveInEveryBlock) {
  const double thr = 0.1;
  const SegmentFeatures cand = l1Features({1000.0});
  const KeyWindow w = admissibleNormWindow(cand.norm, cand.maxAbs, thr);
  MetricHarness h;
  for (int i = 0; i < 80; ++i) h.add(5000.0 + i);  // far outside the window
  for (std::size_t block : {std::size_t{0}, std::size_t{1}}) {
    const std::size_t at = block * MetricBucketIndex::kBlock + 10;
    h.feats[at] = l1Features({w.lo});
    h.feats[at + 1] = l1Features({w.hi});
    h.feats[at + 2] = l1Features({std::nextafter(w.lo, 0.0)});
    h.feats[at + 3] = l1Features({std::nextafter(w.hi, 1e300)});
  }
  h.sync();
  ASSERT_GT(h.index.pivots(), 0u);
  MatchCounters got, want;
  // Nothing accepts at threshold 0.1 except possibly the edges; run with an
  // exact test that rejects everything, so every in-window entry is reached.
  const auto id = h.index.query(
      cand, thr, h.featuresFn(), MetricHarness::distanceFn(),
      [](SegmentId) { return true; }, [](SegmentId) { return false; }, got);
  EXPECT_EQ(id, std::nullopt);
  EXPECT_EQ(h.referenceWalk(cand, 0, thr, want), std::nullopt);
  EXPECT_EQ(got.comparisons, 4u);  // the two edges of both blocks
  EXPECT_EQ(got, want);
}

TEST(MetricBucketIndex, PivotsActivateAtThresholdAndLazySyncFoldsAppends) {
  MetricHarness h;
  for (std::size_t i = 0; i + 1 < MetricBucketIndex::kPivotActivation; ++i)
    h.add(static_cast<double>(i) * 100.0);
  h.sync();
  EXPECT_EQ(h.index.entries(), MetricBucketIndex::kPivotActivation - 1);
  EXPECT_EQ(h.index.pivots(), 0u);  // below the activation population

  // Appending behind the index's back is folded in by the next sync.
  h.add(12345.0);
  EXPECT_EQ(h.index.entries(), MetricBucketIndex::kPivotActivation - 1);
  h.sync();
  EXPECT_EQ(h.index.entries(), MetricBucketIndex::kPivotActivation);
  EXPECT_EQ(h.index.pivots(), MetricBucketIndex::kNumPivots);
  EXPECT_GT(h.counters.pivotDistEvals, 0u);

  // Still answers identically to the scan after activation.
  EXPECT_EQ(h.query(210.0, 0.1), h.linearScan(210.0, 0.1));
  EXPECT_EQ(h.query(12344.0, 0.1), h.linearScan(12344.0, 0.1));
}

TEST(MetricBucketIndex, DegeneratePivotBucketStaysExact) {
  // Every entry identical: the second pivot would coincide with the first,
  // so activation keeps a single pivot — and queries still work.
  MetricHarness h;
  for (std::size_t i = 0; i < MetricBucketIndex::kPivotActivation; ++i) h.add(7.0);
  h.sync();
  EXPECT_EQ(h.index.pivots(), 1u);
  EXPECT_EQ(h.query(7.0, 0.0), std::optional<SegmentId>(0));
  EXPECT_EQ(h.query(100.0, 0.1), std::nullopt);
}

TEST(MetricBucketIndex, WindowPrunesFarEntriesBeforeAnyExactComparison) {
  MetricHarness h;
  for (int i = 0; i < 32; ++i) h.add(static_cast<double>(i) * 1000.0);
  h.sync();
  // Match at the end of the bucket: every earlier entry is outside the norm
  // window and skipped before any per-entry work.
  MatchCounters before = h.counters;
  EXPECT_EQ(h.query(31000.0, 0.001), std::optional<SegmentId>(31));
  MatchCounters delta = h.counters - before;
  EXPECT_GT(delta.indexPruned, 25u);
  EXPECT_LE(delta.indexVisited, 3u);

  // Provably-empty window: the O(log n) early exit prunes the whole bucket
  // without examining a single entry.
  before = h.counters;
  EXPECT_EQ(h.query(15500.0, 0.001), std::nullopt);
  delta = h.counters - before;
  EXPECT_EQ(delta.indexPruned, 32u);
  EXPECT_EQ(delta.comparisons, 0u);
  EXPECT_EQ(delta.indexVisited, 0u);
}

// --------------------------------------------------------------------------
// EndIntervalIndex

TEST(EndIntervalIndex, KeepsStoreOrderKeysAndAnswersWindowProbes) {
  EndIntervalIndex index;
  const std::vector<SegmentId> bucket = {0, 1, 2, 3, 4};
  const std::vector<double> keys = {50.0, 10.0, 30.0, 10.0, 70.0};
  index.sync(bucket, [&](SegmentId id) { return keys[id]; });
  ASSERT_EQ(index.entries(), 5u);

  // keyAt answers in store order (the bucket's order, not sorted).
  for (std::size_t i = 0; i < bucket.size(); ++i)
    EXPECT_EQ(index.keyAt(i), keys[bucket[i]]);

  // anyInWindow is exact over the sorted side array.
  EXPECT_TRUE(index.anyInWindow(KeyWindow{10.0, 50.0}));
  EXPECT_TRUE(index.anyInWindow(KeyWindow{70.0, 70.0}));   // inclusive edges
  EXPECT_FALSE(index.anyInWindow(KeyWindow{60.0, 65.0}));  // gap between keys
  EXPECT_FALSE(index.anyInWindow(KeyWindow{71.0, 99.0}));  // above all keys
  EXPECT_FALSE(index.anyInWindow(KeyWindow{0.0, 9.0}));    // below all keys

  // Lazy sync folds appended entries without disturbing existing order.
  std::vector<SegmentId> grown = bucket;
  grown.push_back(5);
  const std::vector<double> grownKeys = {50.0, 10.0, 30.0, 10.0, 70.0, 40.0};
  index.sync(grown, [&](SegmentId id) { return grownKeys[id]; });
  EXPECT_EQ(index.entries(), 6u);
  EXPECT_EQ(index.keyAt(5), 40.0);
  EXPECT_TRUE(index.anyInWindow(KeyWindow{35.0, 45.0}));  // the appended key
}

// --------------------------------------------------------------------------
// CompatClassIndex

TEST(CompatClassIndex, FoldsEquivalenceClassesAndTracksCountAndLast) {
  // Class label per id; compatibility == same label.
  const std::vector<int> label = {0, 1, 0, 0, 2, 1};
  const std::vector<SegmentId> bucket = {0, 1, 2, 3, 4, 5};
  CompatClassIndex index;
  MatchCounters counters;
  index.sync(
      bucket, [&](SegmentId a, SegmentId b) { return label[a] == label[b]; },
      counters);
  EXPECT_EQ(index.classes(), 3u);
  EXPECT_EQ(index.entries(), 6u);

  const auto* c0 = index.find([&](SegmentId ex) { return label[ex] == 0; }, counters);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->exemplar, 0u);
  EXPECT_EQ(c0->count, 3u);
  EXPECT_EQ(c0->last, 3u);

  const auto* c2 = index.find([&](SegmentId ex) { return label[ex] == 2; }, counters);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->count, 1u);
  EXPECT_EQ(c2->last, 4u);

  EXPECT_EQ(index.find([](SegmentId) { return false; }, counters), nullptr);

  // Lazy sync: a new member of class 1 updates count and last.
  std::vector<SegmentId> grown = bucket;
  grown.push_back(6);
  const std::vector<int> grownLabel = {0, 1, 0, 0, 2, 1, 1};
  index.sync(
      grown, [&](SegmentId a, SegmentId b) { return grownLabel[a] == grownLabel[b]; },
      counters);
  EXPECT_EQ(index.classes(), 3u);
  const auto* c1 = index.find([&](SegmentId ex) { return grownLabel[ex] == 1; }, counters);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->count, 3u);
  EXPECT_EQ(c1->last, 6u);
}

// --------------------------------------------------------------------------
// MatchCounters

TEST(MatchCounters, IndexFieldsMergeDiffAndRates) {
  MatchCounters a;
  a.comparisons = 10;
  a.indexVisited = 3;
  a.indexPruned = 9;
  a.pivotDistEvals = 4;
  MatchCounters b = a;
  b.merge(a);
  EXPECT_EQ(b.indexVisited, 6u);
  EXPECT_EQ(b.indexPruned, 18u);
  EXPECT_EQ(b.pivotDistEvals, 8u);
  EXPECT_EQ(b - a, a);
  EXPECT_DOUBLE_EQ(a.indexPruneRate(), 0.75);
  EXPECT_EQ(a.exactEvals(), 7u);
  EXPECT_DOUBLE_EQ(MatchCounters{}.indexPruneRate(), 0.0);
}

// --------------------------------------------------------------------------
// SegmentStore generation tokens (the invalidation handle the policies key
// their derived state on).

TEST(SegmentStore, GenerationIsUniquePerStoreAndRenewedByClear) {
  SegmentStore a;
  SegmentStore b;
  EXPECT_NE(a.generation(), b.generation());
  const std::uint64_t before = a.generation();
  a.clear();
  EXPECT_NE(a.generation(), before);
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_EQ(a.size(), 0u);
}

}  // namespace
}  // namespace tracered::core
