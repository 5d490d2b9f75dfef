// Behavioural tests for each similarity policy beyond the paper's worked
// examples: threshold monotonicity, bucket handling, caching, averaging.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "core/methods.hpp"
#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "test_helpers.hpp"
#include "wavelet/wavelet.hpp"

// Every global operator new in this binary is counted, so a test can assert
// that a code path allocates nothing (array new and the array deletes
// forward to these by default). The deletes stay out of line so the
// optimizer never pairs an inlined free() with a call to operator new.
namespace {
std::atomic<std::size_t> gNewCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tracered::core {
namespace {

using testing::makeSegment;

Segment jittered(StringTable& names, TimeUs delta) {
  return makeSegment(names, "main.1", 0, 1000 + delta,
                     {{"do_work", OpKind::kCompute, 1, 900 + delta, {}},
                      {"MPI_Barrier", OpKind::kBarrier, 901 + delta, 999 + delta, {}}});
}

TEST(SegmentStoreTest, AddAssignsDenseIdsAndBuckets) {
  StringTable names;
  SegmentStore store;
  const Segment a = jittered(names, 0);
  const Segment b = jittered(names, 5);
  const Segment other = makeSegment(names, "main.2", 0, 10,
                                    {{"do_work", OpKind::kCompute, 1, 9, {}}});
  EXPECT_EQ(store.add(a), 0u);
  EXPECT_EQ(store.add(b), 1u);
  EXPECT_EQ(store.add(other), 2u);
  EXPECT_EQ(store.bucket(a.view().signature()).size(), 2u);
  EXPECT_EQ(store.bucket(other.view().signature()).size(), 1u);
  EXPECT_TRUE(store.bucket(0xdeadbeef).empty());
  // Stored copies have absStart zeroed.
  EXPECT_EQ(store.segment(0).absStart, 0);

  // Slots are dense, in order of each signature's first add.
  EXPECT_EQ(store.bucketCount(), 2u);
  EXPECT_EQ(store.slotOf(a.view().signature()), 0u);
  EXPECT_EQ(store.slotOf(other.view().signature()), 1u);
  EXPECT_EQ(store.slotOf(0xdeadbeef), SegmentStore::kNoSlot);
  EXPECT_EQ(store.bucketAt(0), (std::vector<SegmentId>{0, 1}));
  EXPECT_EQ(store.bucketAt(1), (std::vector<SegmentId>{2}));
  store.clear();
  EXPECT_EQ(store.bucketCount(), 0u);
  EXPECT_EQ(store.slotOf(a.view().signature()), SegmentStore::kNoSlot);
  EXPECT_EQ(store.add(other), 0u);
  EXPECT_EQ(store.slotOf(other.view().signature()), 0u);
}

/// The metric methods: the policies that prepare features.
const std::vector<Method>& featureMethods() {
  static const std::vector<Method> methods = {Method::kManhattan, Method::kEuclidean,
                                              Method::kChebyshev, Method::kAvgWave,
                                              Method::kHaarWave};
  return methods;
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// featuresInto overwrites every field: a scratch last filled from a longer
// segment (longer vector, larger padding, larger norms) yields the same bits
// as a fresh SegmentFeatures, so no stale tail survives into a distance.
TEST(Policies, FeaturesIntoDirtyScratchEqualsFresh) {
  StringTable names;
  std::vector<testing::Ev> events;
  TimeUs t = 0;
  for (const char* fn : {"a", "b", "c", "d", "e", "f", "g"}) {
    events.push_back({fn, OpKind::kCompute, t + 1, t + 90, {}});
    t += 100;
  }
  const Segment longSeg = makeSegment(names, "long", 0, 5000, events);
  const Segment shortSeg = jittered(names, 5);
  for (Method m : featureMethods()) {
    SCOPED_TRACE(methodName(m));
    const auto policy = makePolicy(m, defaultThreshold(m));
    const auto& dist = dynamic_cast<const DistancePolicy&>(*policy);
    SegmentFeatures dirty;
    dist.featuresInto(longSeg, dirty);
    dist.featuresInto(shortSeg, dirty);
    SegmentFeatures fresh;
    dist.featuresInto(shortSeg, fresh);
    ASSERT_EQ(dirty.vec.size(), fresh.vec.size());
    for (std::size_t i = 0; i < fresh.vec.size(); ++i)
      EXPECT_TRUE(sameBits(dirty.vec[i], fresh.vec[i])) << "element " << i;
    EXPECT_TRUE(sameBits(dirty.norm, fresh.norm));
    EXPECT_TRUE(sameBits(dirty.maxAbs, fresh.maxAbs));
  }
}

/// The composition featuresInto must reproduce bit for bit: the public
/// measurement vector, padded and transformed by the std::vector forms, with
/// maxAbs and each norm taken in its own pass in index order.
SegmentFeatures referenceFeatures(Method m, const SegmentView& s) {
  SegmentFeatures f;
  if (m == Method::kAvgWave)
    f.vec = wavelet::avgTransform(wavelet::padToPow2(waveletVector(s)));
  else if (m == Method::kHaarWave)
    f.vec = wavelet::haarTransform(wavelet::padToPow2(waveletVector(s)));
  else
    f.vec = distanceVector(s);
  double maxAbs = 0.0;
  for (const double x : f.vec) maxAbs = std::max(maxAbs, std::fabs(x));
  double l1 = 0.0;
  for (const double x : f.vec) l1 += std::fabs(x);
  double l2 = 0.0;
  for (const double x : f.vec) l2 += x * x;
  f.maxAbs = maxAbs;
  f.norm = m == Method::kManhattan   ? l1
           : m == Method::kChebyshev ? maxAbs
                                     : std::sqrt(l2);
  return f;
}

/// A segment of `n` events with times spread over many magnitudes, some
/// negative (adversarial traces carry any i64), from a fixed-seed LCG.
Segment spreadSegment(StringTable& names, std::size_t n, std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto next = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int shift = 10 + static_cast<int>((x >> 32) % 54);  // |t| < 2^53 down to 0
    return static_cast<TimeUs>(static_cast<std::int64_t>(x) >> shift);
  };
  std::vector<testing::Ev> events;
  for (std::size_t i = 0; i < n; ++i) events.push_back({"f", OpKind::kCompute, next(), next(), {}});
  return makeSegment(names, "main.1", 0, next(), events);
}

void expectSameFeatures(const SegmentFeatures& got, const SegmentFeatures& want) {
  ASSERT_EQ(got.vec.size(), want.vec.size());
  EXPECT_EQ(std::memcmp(got.vec.data(), want.vec.data(), want.vec.size() * sizeof(double)), 0);
  EXPECT_EQ(got.norm, want.norm);
  EXPECT_EQ(got.maxAbs, want.maxAbs);
}

// featuresInto is the one-pass form of the reference composition: the same
// bits for every metric method and every segment length, on both sides of
// the wavelet's on-stack work buffer (63 events), whatever the scratch last
// held.
TEST(Policies, FeaturesIntoMatchesTheReferenceComposition) {
  StringTable names;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (const std::size_t n : {63, 64, 100}) sizes.push_back(n);
  for (Method m : featureMethods()) {
    SCOPED_TRACE(methodName(m));
    const auto policy = makePolicy(m, defaultThreshold(m));
    const auto& dist = dynamic_cast<const DistancePolicy&>(*policy);
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(std::to_string(n) + " events");
      const Segment seg = spreadSegment(names, n, n);
      const SegmentFeatures want = referenceFeatures(m, seg);
      SegmentFeatures fresh;
      dist.featuresInto(seg, fresh);
      expectSameFeatures(fresh, want);
      SegmentFeatures afterLonger;
      dist.featuresInto(spreadSegment(names, n + 9, 1000 + n), afterLonger);
      dist.featuresInto(seg, afterLonger);
      expectSameFeatures(afterLonger, want);
      SegmentFeatures afterShorter;
      dist.featuresInto(spreadSegment(names, n / 2, 2000 + n), afterShorter);
      dist.featuresInto(seg, afterShorter);
      expectSameFeatures(afterShorter, want);
    }
  }
}

// Once the store's bucket is synced and the policy's feature scratch has
// held a candidate this long, a matched tryMatch allocates nothing: no
// feature vectors, no transform temporaries, no index bookkeeping.
TEST(Policies, SteadyStateMatchAllocatesNothing) {
  StringTable names;
  for (Method m : {Method::kAvgWave, Method::kEuclidean}) {
    SCOPED_TRACE(methodName(m));
    auto policy = makePolicy(m, defaultThreshold(m));
    policy->beginRank();
    SegmentStore store;
    // Enough dissimilar representatives to activate the bucket's pivots.
    for (TimeUs delta = 0; delta < 20000; delta += 2000) {
      const SegmentId id = store.add(jittered(names, delta));
      policy->onStored(store.segment(id), id);
    }
    ASSERT_TRUE(testing::tryMatch(*policy, jittered(names, 3), store).has_value());

    const Segment candidate = jittered(names, 5);
    const std::uint64_t signature = candidate.view().signature();
    const std::size_t before = gNewCalls.load();
    const std::optional<SegmentId> match = policy->tryMatch(candidate, signature, store);
    const std::size_t allocations = gNewCalls.load() - before;
    EXPECT_EQ(match, std::optional<SegmentId>(0));
    EXPECT_EQ(allocations, 0u);
  }
}

TEST(Policies, NoMatchAcrossIncompatibleSegments) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment other = makeSegment(names, "main.2", 0, 1000,
                                    {{"do_work", OpKind::kCompute, 1, 999, {}}});
  for (Method m : allMethods()) {
    auto policy = makePolicy(m, 1e9);  // absurdly permissive threshold
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_FALSE(testing::tryMatch(*policy, other, store).has_value())
        << methodName(m) << " matched across contexts";
  }
}

TEST(Policies, ThresholdZeroMatchesOnlyIdenticalSegments) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment same = jittered(names, 0);
  const Segment off = jittered(names, 3);
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kManhattan,
                   Method::kEuclidean, Method::kChebyshev, Method::kAvgWave,
                   Method::kHaarWave}) {
    auto policy = makePolicy(m, 0.0);
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_TRUE(testing::tryMatch(*policy, same, store).has_value()) << methodName(m);
    EXPECT_FALSE(testing::tryMatch(*policy, off, store).has_value()) << methodName(m);
  }
}

TEST(Policies, MatchingIsMonotonicInThreshold) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment off = jittered(names, 40);
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kManhattan,
                   Method::kEuclidean, Method::kChebyshev, Method::kAvgWave,
                   Method::kHaarWave}) {
    bool matchedBefore = false;
    for (double t : studyThresholds(m)) {
      auto policy = makePolicy(m, t);
      policy->beginRank();
      SegmentStore store;
      const SegmentId id = store.add(a);
      policy->onStored(store.segment(id), id);
      const bool matched = testing::tryMatch(*policy, off, store).has_value();
      EXPECT_TRUE(matched || !matchedBefore)
          << methodName(m) << ": match disappeared as threshold grew (t=" << t << ")";
      matchedBefore = matched || matchedBefore;
    }
  }
}

TEST(Policies, FirstMatchingStoredSegmentWins) {
  StringTable names;
  AbsDiffPolicy policy(100);
  SegmentStore store;
  const Segment s0 = jittered(names, 0);
  const Segment s1 = jittered(names, 10);
  store.add(s0);
  store.add(s1);
  // Both are within 100 of the candidate; the paper's algorithm scans stored
  // segments in order and returns the first hit.
  const auto match = testing::tryMatch(policy, jittered(names, 5), store);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, 0u);
}

TEST(RelDiff, EarlySmallTimestampsAreHarsh) {
  // The paper's critique: start times 1 vs 2 fail a 0.25 threshold even
  // though they differ by one tick, while 100 vs 125 pass.
  StringTable names;
  RelDiffPolicy policy(0.25);
  SegmentStore store;
  const Segment a = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 1, 150, {}}});
  const Segment b = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 2, 150, {}}});
  store.add(a);
  EXPECT_FALSE(testing::tryMatch(policy, b, store).has_value());

  SegmentStore store2;
  const Segment c = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 100, 150, {}}});
  const Segment d = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 125, 150, {}}});
  store2.add(c);
  EXPECT_TRUE(testing::tryMatch(policy, d, store2).has_value());
}

TEST(Chebyshev, OnlyLargestDifferenceCounts) {
  StringTable names;
  // Many small differences: Chebyshev sees only the max, Manhattan sums.
  const Segment a = makeSegment(names, "m", 0, 1000,
                                {{"f", OpKind::kCompute, 10, 200, {}},
                                 {"g", OpKind::kCompute, 210, 400, {}},
                                 {"h", OpKind::kCompute, 410, 600, {}},
                                 {"i", OpKind::kCompute, 610, 990, {}}});
  Segment b = a;
  for (auto& e : b.events) {
    e.start += 30;
    e.end += 30;
  }
  // Chebyshev distance = 30; Manhattan = 30 * 8 = 240. max value = 1000.
  MinkowskiPolicy cheb(MinkowskiPolicy::Order::kChebyshev, 0.05);  // allows 50
  MinkowskiPolicy manh(MinkowskiPolicy::Order::kManhattan, 0.05);
  SegmentStore s1, s2;
  s1.add(a);
  s2.add(a);
  EXPECT_TRUE(testing::tryMatch(cheb, b, s1).has_value());
  EXPECT_FALSE(testing::tryMatch(manh, b, s2).has_value());
}

TEST(Wavelet, HaarIsStricterThanAvgOnSameThreshold) {
  // haarWave coefficients are avgWave's scaled by sqrt(2)^level, with the
  // Euclidean distance preserved (not shrunk), so at an equal threshold the
  // Haar test admits no more matches than a test whose distance shrank.
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment b = jittered(names, 25);
  for (double t : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    WaveletPolicy avg(WaveletPolicy::Kind::kAverage, t);
    WaveletPolicy haar(WaveletPolicy::Kind::kHaar, t);
    avg.beginRank();
    haar.beginRank();
    SegmentStore s1, s2;
    const SegmentId i1 = s1.add(a);
    avg.onStored(s1.segment(i1), i1);
    const SegmentId i2 = s2.add(a);
    haar.onStored(s2.segment(i2), i2);
    const bool am = testing::tryMatch(avg, b, s1).has_value();
    const bool hm = testing::tryMatch(haar, b, s2).has_value();
    // If Haar matches, the average transform must match too.
    EXPECT_TRUE(am || !hm) << "t=" << t;
  }
}

TEST(Minkowski, DistanceRejectsMismatchedVectorLengths) {
  // Public-static entry point: mismatched lengths used to read b out of
  // bounds; now they are a diagnostic.
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0};
  for (auto order : {MinkowskiPolicy::Order::kManhattan,
                     MinkowskiPolicy::Order::kEuclidean,
                     MinkowskiPolicy::Order::kChebyshev}) {
    EXPECT_THROW(MinkowskiPolicy::distance(order, a, b), std::invalid_argument);
    EXPECT_THROW(MinkowskiPolicy::distance(order, b, a), std::invalid_argument);
  }
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kManhattan, a, a), 0.0);
}

TEST(IterK, ConstructorRejectsNonPositiveK) {
  // k <= 0 would "match" against a representative that was never stored
  // (the dangling-representative bug): tryMatch's compatibleCount >= k_
  // holds on an empty bucket, returning SegmentId 0 of an empty store.
  EXPECT_THROW(IterKPolicy(0), std::invalid_argument);
  EXPECT_THROW(IterKPolicy(-3), std::invalid_argument);
  EXPECT_EQ(IterKPolicy(1).k(), 1);
}

TEST(Methods, MakePolicyValidatesIterKThreshold) {
  EXPECT_THROW(makePolicy(Method::kIterK, 0.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, -3.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, 2.5), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, 1e18), std::invalid_argument);  // > INT_MAX
  EXPECT_NE(makePolicy(Method::kIterK, 1.0), nullptr);
  EXPECT_NE(makePolicy(Method::kIterK, 1000.0), nullptr);
  // Every study k is valid by construction.
  for (double k : studyThresholds(Method::kIterK))
    EXPECT_NO_THROW(validateThreshold(Method::kIterK, k));
  // The other thresholded methods require a finite, non-negative threshold.
  EXPECT_NO_THROW(validateThreshold(Method::kAvgWave, 0.25));
  EXPECT_THROW(makePolicy(Method::kAbsDiff, -5.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kRelDiff, std::nan("")), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kEuclidean, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // iter_avg ignores its threshold entirely.
  EXPECT_NO_THROW(makePolicy(Method::kIterAvg, -1.0));
}

TEST(IterK, KeepsExactlyKThenMatchesLast) {
  StringTable names;
  IterKPolicy policy(3);
  SegmentStore store;
  for (int i = 0; i < 3; ++i) {
    const Segment s = jittered(names, i);
    EXPECT_FALSE(testing::tryMatch(policy, s, store).has_value());
    store.add(s);
  }
  for (int i = 3; i < 10; ++i) {
    const auto match = testing::tryMatch(policy, jittered(names, i), store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, 2u);  // last stored copy
  }
  EXPECT_EQ(store.size(), 3u);
}

TEST(IterAvg, RunningAverageConvergesToMean) {
  StringTable names;
  IterAvgPolicy policy;
  policy.beginRank();
  SegmentStore store;
  const Segment first = jittered(names, 0);
  const SegmentId id = store.add(first);
  policy.onStored(store.segment(id), id);
  // deltas 0, 10, 20 -> mean end = 1000 + 10.
  EXPECT_TRUE(testing::tryMatch(policy, jittered(names, 10), store).has_value());
  EXPECT_TRUE(testing::tryMatch(policy, jittered(names, 20), store).has_value());
  policy.finishRank(store);
  EXPECT_EQ(store.segment(id).end, 1010);
  EXPECT_EQ(store.segment(id).events[0].end, 910);
}

TEST(Methods, RegistryNamesRoundTrip) {
  for (Method m : allMethods()) {
    EXPECT_EQ(methodByName(methodName(m)), m);
  }
  EXPECT_THROW(methodByName("bogus"), std::invalid_argument);
  EXPECT_EQ(allMethods().size(), 9u);
  EXPECT_EQ(thresholdedMethods().size(), 8u);
}

TEST(Methods, ByNameIsCaseInsensitive) {
  // User-typed CLI input passes straight through.
  EXPECT_EQ(methodByName("manhattan"), Method::kManhattan);
  EXPECT_EQ(methodByName("RELDIFF"), Method::kRelDiff);
  EXPECT_EQ(methodByName("AvgWave"), Method::kAvgWave);
  EXPECT_EQ(methodByName("ITER_K"), Method::kIterK);
  // Prefixes or extensions of a valid name are still unknown.
  EXPECT_THROW(methodByName("manhatta"), std::invalid_argument);
  EXPECT_THROW(methodByName("manhattann"), std::invalid_argument);
}

TEST(Methods, UnknownNameErrorListsAllNineMethods) {
  try {
    methodByName("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    for (Method m : allMethods())
      EXPECT_NE(what.find(methodName(m)), std::string::npos) << what;
  }
}

TEST(Methods, PaperDefaultThresholds) {
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kRelDiff), 0.8);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kAbsDiff), 1000.0);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kManhattan), 0.4);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kEuclidean), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kChebyshev), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kIterK), 10.0);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kAvgWave), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kHaarWave), 0.2);
}

TEST(Methods, StudyThresholdsMatchPaper) {
  EXPECT_EQ(studyThresholds(Method::kRelDiff),
            (std::vector<double>{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}));
  EXPECT_EQ(studyThresholds(Method::kAbsDiff),
            (std::vector<double>{1e1, 1e2, 1e3, 1e4, 1e5, 1e6}));
  EXPECT_EQ(studyThresholds(Method::kIterK),
            (std::vector<double>{1, 10, 50, 100, 500, 1000}));
  EXPECT_TRUE(studyThresholds(Method::kIterAvg).empty());
}

TEST(Methods, PolicyNamesMatchRegistry) {
  for (Method m : allMethods()) {
    EXPECT_EQ(makeDefaultPolicy(m)->name(), methodName(m));
  }
}

}  // namespace
}  // namespace tracered::core
