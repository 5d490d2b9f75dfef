// The matching fast paths against the literal uncached Sec. 3.1 loop:
// bit-identical results for every acceleration tier (off / cached /
// indexed) on every method on every registered workload (iterated from
// eval::allWorkloads(), so the paper's 18 programs AND every scenario), the
// exec-id range property that catches dangling-representative bugs (iter_k
// with k <= 0 used to emit execs against SegmentId 0 of an empty store),
// counter determinism across the serial / parallel / pooled / online /
// streaming drivers, stale-state invalidation after SegmentStore::clear(),
// and FeatureCache behavior.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/methods.hpp"
#include "core/online_reducer.hpp"
#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "core/segment_store.hpp"
#include "eval/workloads.hpp"
#include "test_helpers.hpp"
#include "trace/segmenter.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

using testing::makeSegment;

struct Prepared {
  Trace trace;
  SegmentedTrace segmented;
};

const Prepared& workload(const std::string& name) {
  static std::map<std::string, Prepared> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    eval::WorkloadOptions opts;
    opts.scale = 0.08;
    Prepared p;
    p.trace = eval::runWorkload(name, opts);
    p.segmented = segmentTrace(p.trace);
    it = cache.emplace(name, std::move(p)).first;
  }
  return it->second;
}

/// The nine methods at their paper defaults, plus iter_k@1 — the k edge the
/// dangling-representative bug hid behind (k=1 matches as soon as one
/// representative exists; k=0 used to "match" against an empty store).
std::vector<ReductionConfig> sweepConfigs() {
  std::vector<ReductionConfig> cfgs;
  for (Method m : allMethods()) cfgs.push_back(ReductionConfig::defaults(m));
  cfgs.push_back(ReductionConfig{Method::kIterK, 1.0});
  return cfgs;
}

void expectBitIdentical(const ReductionResult& a, const ReductionResult& b) {
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.reduced.names.all(), b.reduced.names.all());
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size());
  for (std::size_t r = 0; r < a.reduced.ranks.size(); ++r)
    EXPECT_EQ(a.reduced.ranks[r], b.reduced.ranks[r]) << "rank index " << r;
}

/// Every exec must point at a representative that was actually stored —
/// the property the iter_k@0 bug violated.
void expectExecIdsInRange(const ReductionResult& res) {
  for (const RankReduced& rr : res.reduced.ranks)
    for (const SegmentExec& e : rr.execs)
      ASSERT_LT(e.id, rr.stored.size()) << "rank " << rr.rank;
}

TEST(MatchingCache, AllTiersBitIdenticalOnEveryWorkloadAndMethod) {
  for (const std::string& w : eval::allWorkloads()) {
    const Prepared& p = workload(w);
    for (ReductionConfig cfg : sweepConfigs()) {
      SCOPED_TRACE(w + " " + cfg.toString());
      cfg.acceleration = AccelerationTier::kOff;
      const ReductionResult off = reduceTrace(p.segmented, p.trace.names(), cfg);
      cfg.acceleration = AccelerationTier::kCached;
      const ReductionResult cached = reduceTrace(p.segmented, p.trace.names(), cfg);
      cfg.acceleration = AccelerationTier::kIndexed;
      const ReductionResult indexed = reduceTrace(p.segmented, p.trace.names(), cfg);

      expectBitIdentical(off, cached);
      expectBitIdentical(off, indexed);
      expectExecIdsInRange(indexed);

      // The uncached loop never pre-filters or indexes anything.
      EXPECT_EQ(off.counters.pruned, 0u);
      EXPECT_EQ(off.counters.indexPruned, 0u);
      EXPECT_EQ(off.counters.indexVisited, 0u);
      EXPECT_EQ(off.counters.pivotDistEvals, 0u);
      // The cached tier visits the same representatives in the same order;
      // only the pre-filter short-circuit differs.
      EXPECT_EQ(cached.counters.comparisons, off.counters.comparisons);
      EXPECT_LE(cached.counters.pruned, cached.counters.comparisons);
      EXPECT_EQ(cached.counters.indexPruned, 0u);
      // The indexed tier examines at most what the full scan examined, and
      // every examined entry is either bound-rejected or exactly compared.
      EXPECT_LE(indexed.counters.comparisons, off.counters.comparisons);
      EXPECT_LE(indexed.counters.indexVisited, indexed.counters.comparisons);
    }
  }
}

TEST(MatchingCache, IndexedPathMatchesEveryDriver) {
  // Serial is the reference; the parallel, pooled, online and streaming
  // drivers must reproduce both the result and the counters bit-exactly.
  for (const std::string& w : {std::string("late_sender"), std::string("sweep3d_8p"),
                               std::string("scenario:sparse_ranks")}) {
    const Prepared& p = workload(w);
    for (Method m : allMethods()) {
      SCOPED_TRACE(w + " " + methodName(m));
      const ReductionConfig cfg = ReductionConfig::defaults(m);
      const ReductionResult serial = reduceTrace(p.segmented, p.trace.names(), cfg);

      ReductionConfig par = cfg;
      par.numThreads = 4;
      const ReductionResult parallel = reduceTrace(p.segmented, p.trace.names(), par);
      expectBitIdentical(serial, parallel);
      EXPECT_EQ(serial.counters, parallel.counters);

      util::PooledExecutor pool(3);
      const ReductionResult pooled =
          reduceTrace(p.segmented, p.trace.names(), cfg.withExecutor(pool));
      expectBitIdentical(serial, pooled);
      EXPECT_EQ(serial.counters, pooled.counters);

      OnlineReducer red(p.trace.names(), cfg);
      for (Rank r = 0; r < p.trace.numRanks(); ++r)
        for (const RawRecord& rec : p.trace.rank(r).records) red.feed(r, rec);
      const ReductionResult online = red.finish();
      expectBitIdentical(serial, online);
      EXPECT_EQ(serial.counters, online.counters);

      ReductionSession session(p.trace.names(), cfg);
      for (Rank r = 0; r < p.trace.numRanks(); ++r)
        for (const RawRecord& rec : p.trace.rank(r).records) session.feed(r, rec);
      const ReductionResult streamed = session.finish();
      expectBitIdentical(serial, streamed);
      EXPECT_EQ(serial.counters, streamed.counters);
    }
  }
}

TEST(MatchingCache, PreFilterPrunesProvablyDissimilarPairs) {
  // Same signature, wildly different durations: the norm gap alone rejects
  // the pair at a tight Euclidean threshold — no full vector walk.
  StringTable names;
  const Segment shortSeg = makeSegment(names, "m", 0, 100,
                                       {{"f", OpKind::kCompute, 1, 99, {}}});
  const Segment longSeg = makeSegment(names, "m", 0, 1000000,
                                      {{"f", OpKind::kCompute, 1, 999999, {}}});
  MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.01);
  policy.setAccelerationTier(AccelerationTier::kCached);
  policy.beginRank();
  SegmentStore store;
  const SegmentId id = store.add(shortSeg);
  policy.onStored(store.segment(id), id);
  EXPECT_FALSE(policy.tryMatch(longSeg, store).has_value());
  EXPECT_EQ(policy.matchCounters().comparisons, 1u);
  EXPECT_EQ(policy.matchCounters().pruned, 1u);
}

TEST(MatchingCache, IndexExcludesDissimilarEntriesBeforeAnyExactComparison) {
  // The same pair under the indexed tier: the stored norm falls outside the
  // candidate's admissible window, so the entry is never even visited.
  StringTable names;
  const Segment shortSeg = makeSegment(names, "m", 0, 100,
                                       {{"f", OpKind::kCompute, 1, 99, {}}});
  const Segment longSeg = makeSegment(names, "m", 0, 1000000,
                                      {{"f", OpKind::kCompute, 1, 999999, {}}});
  MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.01);
  policy.beginRank();
  SegmentStore store;
  const SegmentId id = store.add(shortSeg);
  policy.onStored(store.segment(id), id);
  EXPECT_FALSE(policy.tryMatch(longSeg, store).has_value());
  EXPECT_EQ(policy.matchCounters().indexPruned, 1u);
  EXPECT_EQ(policy.matchCounters().indexVisited, 0u);
  EXPECT_EQ(policy.matchCounters().comparisons, 0u);  // never entered the window
}

TEST(MatchingCache, LazyFeatureFillServesStoresPopulatedBehindThePolicy) {
  // Representatives added without the onStored hook (manual SegmentStore
  // use) still match: the cache and index fill lazily during the scan.
  StringTable names;
  const Segment a = makeSegment(names, "m", 0, 100,
                                {{"f", OpKind::kCompute, 1, 99, {}}});
  Segment b = a;
  b.end += 1;
  for (AccelerationTier tier : {AccelerationTier::kCached, AccelerationTier::kIndexed}) {
    MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.5);
    policy.setAccelerationTier(tier);
    policy.beginRank();
    SegmentStore store;
    store.add(a);  // no onStored
    const auto match = policy.tryMatch(b, store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, 0u);
  }
}

TEST(MatchingCache, StoreClearInvalidatesCachedFeaturesAndIndexes) {
  // Regression: a store cleared and repopulated reuses SegmentIds. The
  // policy's derived state (FeatureCache, per-bucket indexes) must notice
  // the new generation instead of serving the old id-0 features — which
  // would "match" the old segment against a completely different new one.
  StringTable names;
  const Segment original = makeSegment(names, "m", 0, 100,
                                       {{"f", OpKind::kCompute, 1, 99, {}}});
  const Segment replacement = makeSegment(names, "m", 0, 1000000,
                                          {{"f", OpKind::kCompute, 1, 999999, {}}});
  for (AccelerationTier tier : {AccelerationTier::kCached, AccelerationTier::kIndexed}) {
    MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.1);
    policy.setAccelerationTier(tier);
    policy.beginRank();
    SegmentStore store;
    SegmentId id = store.add(original);
    policy.onStored(store.segment(id), id);
    EXPECT_TRUE(policy.tryMatch(original, store).has_value());

    store.clear();
    id = store.add(replacement);  // reuses id 0
    policy.onStored(store.segment(id), id);
    // Stale features for the old id 0 would accept this match.
    EXPECT_FALSE(policy.tryMatch(original, store).has_value())
        << "tier " << static_cast<int>(tier);
    EXPECT_TRUE(policy.tryMatch(replacement, store).has_value());
  }

  // iter_k keeps its own class index keyed by id; the same invalidation
  // applies (a stale class count would claim k executions already exist).
  IterKPolicy iterK(1);
  iterK.beginRank();
  SegmentStore store;
  SegmentId id = store.add(original);
  iterK.onStored(store.segment(id), id);
  EXPECT_TRUE(iterK.tryMatch(original, store).has_value());
  store.clear();
  EXPECT_FALSE(iterK.tryMatch(original, store).has_value());
}

/// `n` compatible segments whose measurements grow by 10% per step, so a
/// bucket fills past every index activation population.
std::vector<Segment> growingSegments(StringTable& names, int n) {
  std::vector<Segment> out;
  for (int i = 0; i < n; ++i) {
    const TimeUs end = 100 + 10 * i * i;
    out.push_back(makeSegment(names, "m", 0, end,
                              {{"f", OpKind::kCompute, 1, end - 1, {}}}));
  }
  return out;
}

// tryMatch is sync + query: a policy driven through the split halves, with
// its query counters kept apart, answers every candidate exactly like one
// driven through tryMatch, and the two counter streams add up to tryMatch's.
TEST(MatchingCache, SyncThenQueryEqualsTryMatch) {
  StringTable names;
  const std::vector<Segment> segs = growingSegments(names, 24);
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kEuclidean,
                   Method::kAvgWave}) {
    for (AccelerationTier tier : {AccelerationTier::kOff, AccelerationTier::kCached,
                                  AccelerationTier::kIndexed}) {
      SCOPED_TRACE(std::string(methodName(m)) + " tier " +
                   std::to_string(static_cast<int>(tier)));
      auto whole = makePolicy(m, defaultThreshold(m) / 8);
      auto split = makePolicy(m, defaultThreshold(m) / 8);
      whole->setAccelerationTier(tier);
      split->setAccelerationTier(tier);
      auto& dist = dynamic_cast<DistancePolicy&>(*split);
      SegmentStore a, b;
      MatchCounters queried;
      for (const Segment& s : segs) {
        const auto want = whole->tryMatch(s, a);
        dist.sync(s, b);
        const auto got = dist.query(s, b, queried);
        ASSERT_EQ(got, want);
        if (!want) {
          const SegmentId ia = a.add(s);
          whole->onStored(a.segment(ia), ia);
          const SegmentId ib = b.add(s);
          split->onStored(b.segment(ib), ib);
        }
      }
      EXPECT_GT(a.size(), EndIntervalIndex::kActivation);
      MatchCounters total = split->matchCounters();
      total.merge(queried);
      EXPECT_EQ(total, whole->matchCounters());
    }
  }
}

// The read-only probe never rebuilds: querying a store the policy is not
// synced to, or a bucket that grew since its sync, throws instead of
// silently answering from partial state.
TEST(MatchingCache, QueryFailsLoudlyWhenNotSynced) {
  StringTable names;
  const std::vector<Segment> segs = growingSegments(names, 12);
  for (Method m : {Method::kRelDiff, Method::kEuclidean, Method::kAvgWave}) {
    SCOPED_TRACE(methodName(m));
    auto policy = makePolicy(m, defaultThreshold(m));
    auto& dist = dynamic_cast<DistancePolicy&>(*policy);
    SegmentStore store;
    for (const Segment& s : segs) store.add(s);  // behind the policy's back
    MatchCounters counters;
    EXPECT_THROW((void)dist.query(segs[0], store, counters), std::logic_error);

    dist.sync(segs[0], store);
    EXPECT_EQ(dist.query(segs[0], store, counters), std::optional<SegmentId>(0));
    SegmentStore other;
    other.add(segs[0]);
    EXPECT_THROW((void)dist.query(segs[0], other, counters), std::logic_error);

    store.add(segs.back());  // the bucket grows; the index has not seen it
    EXPECT_THROW((void)dist.query(segs[0], store, counters), std::logic_error);
    dist.sync(segs[0], store);
    EXPECT_NO_THROW((void)dist.query(segs[0], store, counters));
  }
}

TEST(MatchingCache, AccelerationOffNeverPopulatesTheCacheButStillMatches) {
  StringTable names;
  const Segment a = makeSegment(names, "m", 0, 100,
                                {{"f", OpKind::kCompute, 1, 99, {}}});
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kEuclidean,
                   Method::kAvgWave, Method::kHaarWave}) {
    auto policy = makePolicy(m, 1e9);
    policy->setAcceleration(false);
    EXPECT_EQ(policy->accelerationTier(), AccelerationTier::kOff);
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_TRUE(policy->tryMatch(a, store).has_value()) << methodName(m);
    EXPECT_EQ(policy->matchCounters().indexVisited, 0u);
    EXPECT_EQ(policy->matchCounters().indexPruned, 0u);
  }
}

TEST(FeatureCache, PutGetOrComputeAndClear) {
  FeatureCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.has(0));

  SegmentFeatures f;
  f.vec = {1.0, 2.0};
  f.norm = 3.0;
  f.maxAbs = 2.0;
  cache.put(1, f);
  EXPECT_TRUE(cache.has(1));
  EXPECT_FALSE(cache.has(0));  // resized slot exists but is empty
  EXPECT_EQ(cache.size(), 2u);

  int computations = 0;
  const SegmentFeatures& lazy = cache.getOrCompute(0, [&] {
    ++computations;
    SegmentFeatures g;
    g.norm = 7.0;
    return g;
  });
  EXPECT_EQ(lazy.norm, 7.0);
  EXPECT_EQ(computations, 1);
  // Second lookup hits the cache.
  (void)cache.getOrCompute(0, [&] {
    ++computations;
    return SegmentFeatures{};
  });
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(cache.getOrCompute(1, [] { return SegmentFeatures{}; }).norm, 3.0);

  // The read-only lookup serves cached entries and throws on a miss rather
  // than growing the cache.
  const FeatureCache& frozen = cache;
  EXPECT_EQ(frozen.get(1).norm, 3.0);
  EXPECT_THROW((void)frozen.get(5), std::logic_error);
  EXPECT_EQ(frozen.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.has(1));
  EXPECT_THROW((void)frozen.get(0), std::logic_error);
}

TEST(MatchCountersTest, MergeDiffAndPruneRate) {
  MatchCounters a{10, 4};
  const MatchCounters b{5, 1};
  a.merge(b);
  EXPECT_EQ(a.comparisons, 15u);
  EXPECT_EQ(a.pruned, 5u);
  const MatchCounters d = a - b;
  EXPECT_EQ(d.comparisons, 10u);
  EXPECT_EQ(d.pruned, 4u);
  EXPECT_DOUBLE_EQ(d.pruneRate(), 0.4);
  EXPECT_DOUBLE_EQ(MatchCounters{}.pruneRate(), 0.0);
}

}  // namespace
}  // namespace tracered::core
