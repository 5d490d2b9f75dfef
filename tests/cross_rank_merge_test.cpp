// The hierarchical cross-rank merge's contract: for EVERY registered
// workload × every method × every shard size × thread count, the tree merge
// is bit-identical (serialized TRM1 bytes) to the serial reference pass —
// including the hand-built non-transitivity case that breaks naive subtree
// merging — plus counter determinism, round-trips, incremental feeding, and
// first-match-winner ordering invariants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

ReducedTrace reduceWith(const Trace& trace, Method m) {
  auto policy = makeDefaultPolicy(m);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;
}

/// Serial reference merge under `m`'s default config.
MergedReducedTrace serialReference(const ReducedTrace& reduced, Method m,
                                   MergeStats* stats = nullptr) {
  auto policy = makeDefaultPolicy(m);
  return mergeAcrossRanks(reduced, *policy, stats);
}

// The tentpole guarantee, swept over the whole registry (iterated from
// eval::allWorkloads(), never hand-listed): for all nine methods, the
// hierarchical merge produces byte-identical TRM1 output to the serial pass
// for every shard size (1 = one rank per tree leaf, 3 = shards that straddle
// rank boundaries unevenly, 8, and 1000 = one single shard) and for serial
// vs parallel probing.
TEST(CrossRankMerge, RegistryWideTreeMergeMatchesSerial) {
  eval::WorkloadOptions opts;
  opts.scale = 0.06;
  for (const std::string& workload : eval::allWorkloads()) {
    const Trace trace = eval::runWorkload(workload, opts);
    for (Method m : allMethods()) {
      SCOPED_TRACE(workload + " " + methodName(m));
      const ReducedTrace reduced = reduceWith(trace, m);
      const std::vector<std::uint8_t> want =
          serializeMergedTrace(serialReference(reduced, m));
      for (std::size_t shard : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{1000}}) {
        for (int threads : {1, 4}) {
          util::PooledExecutor pool(threads);
          MergeOptions mo;
          mo.config = ReductionConfig::defaults(m).withExecutor(pool);
          mo.shardRanks = shard;
          const MergeResult got = mergeAcrossRanks(reduced, mo);
          EXPECT_EQ(serializeMergedTrace(got.merged), want)
              << "shard=" << shard << " threads=" << threads;
          EXPECT_EQ(got.stats.inputRepresentatives, reduced.totalStored());
          EXPECT_EQ(got.stats.mergedRepresentatives, got.merged.sharedStore.size());
        }
      }
    }
  }
}

// Similarity is not transitive: with absDiff@10 and representative ends
// x=100 (rank 0), y=115 (rank 1), z=108 (rank 2), y does not match x
// (|15| > 10) but z matches BOTH x (8) and y (7). A naive subtree merge of
// {rank1, rank2} would collapse z into y; the serial rule maps z to x (the
// earliest match). The frozen-prefix tree must agree with serial for every
// shard geometry — including shard size 2, which puts y and z in the same
// subtree.
TEST(CrossRankMerge, NonTransitiveSimilarityStillMatchesSerial) {
  ReducedTrace rt;
  const NameId ctx = rt.names.intern("main.1");
  const NameId fn = rt.names.intern("do_work");
  const TimeUs ends[] = {100, 115, 108};
  for (int r = 0; r < 3; ++r) {
    RankReduced rr;
    rr.rank = r;
    Segment s;
    s.context = ctx;
    s.rank = r;
    s.end = ends[r];
    EventInterval e;
    e.name = fn;
    e.start = 0;
    e.end = ends[r];
    s.events.push_back(e);
    rr.stored.push_back(s);
    rr.execs.push_back({0, 1000});
    rt.ranks.push_back(std::move(rr));
  }

  AbsDiffPolicy ref(10);
  const MergedReducedTrace serial = mergeAcrossRanks(rt, ref, nullptr);
  ASSERT_EQ(serial.sharedStore.size(), 2u);       // x and y stored
  EXPECT_EQ(serial.sharedStore[0].end, 100);      // x
  EXPECT_EQ(serial.sharedStore[1].end, 115);      // y
  EXPECT_EQ(serial.execs[2][0].id, 0u);           // z -> x, the EARLIEST match

  const std::vector<std::uint8_t> want = serializeMergedTrace(serial);
  for (std::size_t shard : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (int threads : {1, 2}) {
      util::PooledExecutor pool(threads);
      MergeOptions mo;
      mo.config = ReductionConfig{Method::kAbsDiff, 10, &pool};
      mo.shardRanks = shard;
      const MergeResult got = mergeAcrossRanks(rt, mo);
      EXPECT_EQ(serializeMergedTrace(got.merged), want)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(got.merged.execs[2][0].id, 0u)
          << "z must map to x, never to the in-shard winner y";
    }
  }
}

// First-match-winner ordering invariant: representatives enter the shared
// store in (rank order, store order), so the store's per-entry rank labels
// are non-decreasing — under every shard geometry, not just serial.
TEST(CrossRankMerge, SharedStoreKeepsRankOrder) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  util::PooledExecutor pool(4);
  for (std::size_t shard : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    MergeOptions mo;
    mo.config = ReductionConfig::defaults(Method::kAvgWave).withExecutor(pool);
    mo.shardRanks = shard;
    const MergeResult got = mergeAcrossRanks(reduced, mo);
    for (std::size_t i = 1; i < got.merged.sharedStore.size(); ++i)
      EXPECT_LE(got.merged.sharedStore[i - 1].rank, got.merged.sharedStore[i].rank)
          << "shard=" << shard << " store entry " << i;
  }
}

// reconstructMerged ∘ merge round-trip: the merged trace expands back to one
// compatible segment per original execution with the original start times,
// for the hierarchical driver exactly as for the serial pass.
TEST(CrossRankMerge, ReconstructionRoundTripStaysStructurallyExact) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("1to1r_32", opts);
  const SegmentedTrace original = segmentTrace(trace);
  const ReducedTrace reduced = reduceWith(trace, Method::kManhattan);
  util::PooledExecutor pool(2);
  MergeOptions mo;
  mo.config = ReductionConfig{Method::kAbsDiff, 500, &pool};
  mo.shardRanks = 3;
  const MergeResult merged = mergeAcrossRanks(reduced, mo);
  const SegmentedTrace rec = reconstructMerged(merged.merged);
  ASSERT_EQ(rec.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < rec.ranks.size(); ++r) {
    ASSERT_EQ(rec.ranks[r].segments.size(), original.ranks[r].segments.size());
    for (std::size_t s = 0; s < rec.ranks[r].segments.size(); ++s) {
      EXPECT_TRUE(rec.ranks[r].segments[s].compatible(original.ranks[r].segments[s]));
      EXPECT_EQ(rec.ranks[r].segments[s].absStart,
                original.ranks[r].segments[s].absStart);
    }
  }
}

// TRM1 serialization round-trip: deserialize(serialize(m)) re-serializes to
// the same bytes, and reconstructs to the same per-rank segments (store-side
// rank labels are not encoded; reconstruction re-labels from the exec rows,
// so the expansion is unaffected).
TEST(CrossRankMerge, MergedTraceSerializationRoundTrips) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("scenario:multi_region", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  MergeOptions mo;
  mo.config = ReductionConfig::defaults(Method::kAvgWave);
  const MergeResult merged = mergeAcrossRanks(reduced, mo);

  const std::vector<std::uint8_t> bytes = serializeMergedTrace(merged.merged);
  EXPECT_EQ(bytes.size(), mergedTraceSize(merged.merged));
  const MergedReducedTrace back = deserializeMergedTrace(bytes);
  EXPECT_EQ(serializeMergedTrace(back), bytes);
  EXPECT_EQ(back.names.all(), merged.merged.names.all());
  EXPECT_EQ(back.rankIds, merged.merged.rankIds);

  const SegmentedTrace a = reconstructMerged(merged.merged);
  const SegmentedTrace b = reconstructMerged(back);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    ASSERT_EQ(a.ranks[r].segments.size(), b.ranks[r].segments.size());
    EXPECT_EQ(a.ranks[r].rank, b.ranks[r].rank);
    for (std::size_t s = 0; s < a.ranks[r].segments.size(); ++s) {
      EXPECT_TRUE(a.ranks[r].segments[s].compatible(b.ranks[r].segments[s]));
      EXPECT_EQ(a.ranks[r].segments[s].absStart, b.ranks[r].segments[s].absStart);
      EXPECT_EQ(a.ranks[r].segments[s].rank, b.ranks[r].segments[s].rank);
    }
  }
}

TEST(CrossRankMerge, RejectsMalformedMergedBytes) {
  EXPECT_THROW(deserializeMergedTrace({}), std::exception);
  std::vector<std::uint8_t> junk{0x54, 0x52, 0x4d, 0x31, 0xff};  // wrong order + version
  EXPECT_THROW(deserializeMergedTrace(junk), std::runtime_error);
}

// The MergeStats.counters contract (the latent gap this PR closes): the
// per-shard probe counters are snapshot-diffed per rank unit and summed in
// rank order at the join, so for a FIXED MergeOptions the full MergeStats —
// counters included — is identical across thread counts and executors
// (mirroring matching_cache_test's counter-determinism guarantee for the
// intra-rank pass).
TEST(CrossRankMerge, CountersAreDeterministicAcrossThreadsAndExecutors) {
  eval::WorkloadOptions opts;
  opts.scale = 0.1;
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", opts);
  for (Method m : {Method::kAvgWave, Method::kRelDiff, Method::kEuclidean}) {
    SCOPED_TRACE(methodName(m));
    const ReducedTrace reduced = reduceWith(trace, m);
    MergeOptions mo;
    mo.config = ReductionConfig::defaults(m);
    mo.shardRanks = 4;
    const MergeResult base = mergeAcrossRanks(reduced, mo);  // inline, no executor
    EXPECT_GT(base.stats.counters.comparisons, 0u);
    for (int threads : {1, 2, 8}) {
      util::PooledExecutor pool(threads);
      MergeOptions mt = mo;
      mt.config.executor = &pool;
      const MergeResult got = mergeAcrossRanks(reduced, mt);
      EXPECT_EQ(got.stats.counters, base.stats.counters) << "threads=" << threads;
      EXPECT_EQ(got.stats.inputRepresentatives, base.stats.inputRepresentatives);
      EXPECT_EQ(got.stats.mergedRepresentatives, base.stats.mergedRepresentatives);
    }
    util::PooledExecutor pool(4);
    MergeOptions mp = mo;
    mp.config.executor = &pool;
    const MergeResult pooled = mergeAcrossRanks(reduced, mp);
    EXPECT_EQ(pooled.stats.counters, base.stats.counters) << "pooled executor";
  }
}

// Incremental feeding (the bounded-memory API the scale tier builds on):
// addNames + addRank, one rank at a time, produces the same bytes as the
// whole-trace overload.
TEST(CrossRankMerge, IncrementalFeedMatchesWholeTrace) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("NtoN_32", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kEuclidean);
  util::PooledExecutor pool(2);
  MergeOptions mo;
  mo.config = ReductionConfig::defaults(Method::kEuclidean).withExecutor(pool);
  mo.shardRanks = 3;
  const MergeResult whole = mergeAcrossRanks(reduced, mo);

  CrossRankMerger merger(mo);
  merger.addNames(reduced.names);
  for (const RankReduced& rr : reduced.ranks) merger.addRank(reduced.names, rr);
  EXPECT_EQ(merger.ranksAdded(), reduced.ranks.size());
  const MergeResult incremental = merger.finish();
  EXPECT_EQ(serializeMergedTrace(incremental.merged),
            serializeMergedTrace(whole.merged));
  EXPECT_EQ(incremental.stats.counters, whole.stats.counters);
  EXPECT_THROW(merger.finish(), std::logic_error);
  EXPECT_THROW(merger.addRank(reduced.names, reduced.ranks[0]), std::logic_error);
}

/// `ranks` relabeled copies of `base`'s ranks, cycling through `variants`
/// time dilations (x1.0, x1.5, x2.0, ...) of every stored segment — the
/// population bench_merge feeds. Variant v only matches variant v, so each
/// shared bucket holds one entry per distinct variant: enough to pass
/// MetricBucketIndex::kPivotActivation, while the store stays O(variants ×
/// base) however many ranks arrive.
ReducedTrace dilatedCopies(const ReducedTrace& base, std::size_t ranks,
                           std::size_t variants) {
  ReducedTrace out;
  for (const auto& s : base.names.all()) out.names.intern(s);
  while (out.ranks.size() < ranks) {
    for (const RankReduced& rr : base.ranks) {
      if (out.ranks.size() >= ranks) break;
      const Rank rank = static_cast<Rank>(out.ranks.size());
      const TimeUs num = static_cast<TimeUs>(1024 + (out.ranks.size() % variants) * 512);
      RankReduced copy = rr;
      copy.rank = rank;
      for (Segment& seg : copy.stored) {
        seg.rank = rank;
        seg.end = seg.end * num / 1024;
        for (EventInterval& e : seg.events) {
          e.start = e.start * num / 1024;
          e.end = e.end * num / 1024;
        }
      }
      out.ranks.push_back(std::move(copy));
    }
  }
  return out;
}

ReducedTrace dilatedSparseRanks(std::size_t ranks) {
  eval::WorkloadOptions opts;
  opts.scale = 0.05;
  const Trace trace = eval::runWorkload("scenario:sparse_ranks", opts);
  return dilatedCopies(reduceWith(trace, Method::kAvgWave), ranks, 16);
}

// Regression: the probe used to rebuild the shared store's match index for
// every rank — re-deriving every representative's features and pivot
// distances in each bucket the rank touched — so pivot distance work grew
// with ranks × bucket size. One index over the shared store, synced once per
// entry and probed read-only, pays at most kNumPivots distances per
// representative it indexes and per candidate it queries.
TEST(CrossRankMerge, ProbeReusesOneIndexOverTheSharedStore) {
  const ReducedTrace input = dilatedSparseRanks(512);
  MergeOptions mo;
  mo.config = ReductionConfig::defaults(Method::kAvgWave);
  mo.shardRanks = 64;
  const MergeResult got = mergeAcrossRanks(input, mo);
  const MergeStats& stats = got.stats;
  ASSERT_GT(stats.counters.pivotDistEvals, 0u)
      << "shared buckets must reach pivot activation for this test to bite";
  EXPECT_LE(stats.counters.pivotDistEvals,
            MetricBucketIndex::kNumPivots *
                (stats.inputRepresentatives + stats.mergedRepresentatives));
  EXPECT_EQ(serializeMergedTrace(got.merged),
            serializeMergedTrace(serialReference(input, Method::kAvgWave)));
}

// The probe's concurrent read path: four workers query the one synced index
// at once (buckets with active pivots, so the pivot arrays and the feature
// cache are read concurrently). Bytes match the serial reference and
// counters match the inline run. Runs under the TSan job.
TEST(CrossRankMerge, ConcurrentReadOnlyProbeMatchesSerial) {
  const ReducedTrace input = dilatedSparseRanks(256);
  util::PooledExecutor pool(4);
  for (Method m : {Method::kAvgWave, Method::kEuclidean}) {
    SCOPED_TRACE(methodName(m));
    MergeOptions mo;
    mo.config = ReductionConfig::defaults(m);
    mo.shardRanks = 16;
    const MergeResult inlineRun = mergeAcrossRanks(input, mo);
    mo.config.executor = &pool;
    const MergeResult pooled = mergeAcrossRanks(input, mo);
    EXPECT_GT(pooled.stats.counters.pivotDistEvals, 0u);
    EXPECT_EQ(serializeMergedTrace(pooled.merged),
              serializeMergedTrace(serialReference(input, m)));
    EXPECT_EQ(pooled.stats.counters, inlineRun.stats.counters);
  }
}

// Ranks fed from DIFFERENT string tables (independent per-rank reductions,
// the multi-file ingest shape): name ids are remapped into the merger's
// table, so equal-named contexts still merge across ranks.
TEST(CrossRankMerge, RemapsNamesAcrossIndependentTables) {
  auto makeRank = [](Rank rank, std::vector<std::string> nameOrder) {
    auto out = std::make_pair(StringTable{}, RankReduced{});
    for (const auto& n : nameOrder) out.first.intern(n);
    out.second.rank = rank;
    Segment s;
    s.context = out.first.find("main.1");
    s.rank = rank;
    s.end = 50;
    EventInterval e;
    e.name = out.first.find("do_work");
    e.start = 0;
    e.end = 50;
    s.events.push_back(e);
    out.second.stored.push_back(s);
    out.second.execs.push_back({0, 10});
    return out;
  };
  // Same names, interned in opposite orders: the ids differ per table.
  const auto a = makeRank(0, {"main.1", "do_work"});
  const auto b = makeRank(1, {"do_work", "main.1"});

  MergeOptions mo;
  mo.config = ReductionConfig{Method::kAbsDiff, 10};
  CrossRankMerger merger(mo);
  merger.addRank(a.first, a.second);
  merger.addRank(b.first, b.second);
  const MergeResult merged = merger.finish();
  ASSERT_EQ(merged.merged.sharedStore.size(), 1u)
      << "equal-named representatives must merge despite differing name ids";
  EXPECT_EQ(merged.merged.names.name(merged.merged.sharedStore[0].context), "main.1");
  EXPECT_EQ(merged.merged.execs[1][0].id, 0u);
}

}  // namespace
}  // namespace tracered::core
