// The equivalence matrix of the config-driven reduction driver, swept over
// the WHOLE workload registry (the paper's 18 programs + every scenario):
// for every method at its default threshold, offline serial == offline
// parallel (PooledExecutor widths 1, 2, 8 and a shared pool) == online ==
// streaming ReductionSession, with bit-identical ReducedTraces and identical
// merged ReductionStats. Plus sparse-rank indexing in the online reducer and
// stats-merge algebra.
#include <gtest/gtest.h>

#include <optional>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/online_reducer.hpp"
#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

/// Multi-rank synthetic trace shared by the matrix tests (8 ranks with
/// rank-dependent timing from the late-sender simulator).
const Trace& matrixTrace() {
  static const Trace trace = [] {
    eval::WorkloadOptions opts;
    opts.scale = 0.15;
    return eval::runWorkload("late_sender", opts);
  }();
  return trace;
}

ReductionResult reduceOnline(const Trace& trace, const ReductionConfig& config) {
  OnlineReducer red(trace.names(), config);
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) red.feed(r, rec);
  return red.finish();
}

/// The streaming facade, wired the way `tracered reduce --streaming` is.
ReductionResult reduceStreaming(const Trace& trace, const ReductionConfig& config) {
  ReductionSession session(trace.names(), config);
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    session.ensureRank(r);
    for (const RawRecord& rec : trace.rank(r).records) session.feed(r, rec);
  }
  return session.finish();
}

void expectIdentical(const ReductionResult& a, const ReductionResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.stats, b.stats) << what;
  EXPECT_EQ(a.reduced.names.all(), b.reduced.names.all()) << what;
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size()) << what;
  for (std::size_t i = 0; i < a.reduced.ranks.size(); ++i)
    EXPECT_EQ(a.reduced.ranks[i], b.reduced.ranks[i]) << what << " rank " << i;
}

// The registry-driven sweep (the satellite guarantee): on EVERY registered
// workload — iterated from eval::allWorkloads(), never hand-listed, so new
// scenarios are covered the moment they register — and for all nine methods,
// every driver produces bit-identical results.
TEST(ParallelReduce, RegistryWideDriverEquivalence) {
  eval::WorkloadOptions opts;
  opts.scale = 0.06;
  util::PooledExecutor shared(4);  // one pool reused across the whole sweep
  for (const std::string& workload : eval::allWorkloads()) {
    const Trace trace = eval::runWorkload(workload, opts);
    const SegmentedTrace segmented = segmentTrace(trace);
    for (Method m : allMethods()) {
      const ReductionConfig config = ReductionConfig::defaults(m);
      SCOPED_TRACE(workload + " " + methodName(m));

      auto policy = config.makePolicy();
      const ReductionResult serial = reduceTrace(segmented, trace.names(), *policy);

      for (int threads : {1, 2, 8}) {
        util::PooledExecutor pool(threads);
        expectIdentical(serial,
                        reduceTrace(segmented, trace.names(), config.withExecutor(pool)),
                        "parallel threads=" + std::to_string(threads));
      }
      expectIdentical(serial,
                      reduceTrace(segmented, trace.names(), config.withExecutor(shared)),
                      "shared pooled executor");
      expectIdentical(serial, reduceOnline(trace, config), "online");
      expectIdentical(serial, reduceStreaming(trace, config), "streaming session");
    }
  }
}

// The driver matrix extended through the merge stage: on every registered
// workload, a session armed with setMergeOptions produces merged TRM1 bytes
// identical to the serial reference merge of the serial reduction — across
// pool widths {1, 2, 8}, a shared PooledExecutor, and the offline vs streaming
// paths alike.
TEST(ParallelReduce, RegistryWideMergeStageEquivalence) {
  eval::WorkloadOptions opts;
  opts.scale = 0.06;
  util::PooledExecutor shared(4);
  const Method m = Method::kAvgWave;  // per-method coverage lives in
                                      // cross_rank_merge_test's sweep
  for (const std::string& workload : eval::allWorkloads()) {
    SCOPED_TRACE(workload);
    const Trace trace = eval::runWorkload(workload, opts);
    const SegmentedTrace segmented = segmentTrace(trace);

    auto policy = ReductionConfig::defaults(m).makePolicy();
    const ReductionResult serial = reduceTrace(segmented, trace.names(), *policy);
    auto mergePolicy = ReductionConfig::defaults(m).makePolicy();
    const std::vector<std::uint8_t> want =
        serializeMergedTrace(mergeAcrossRanks(serial.reduced, *mergePolicy));

    auto mergedBytesOf = [&](ReductionSession& session, bool streaming) {
      MergeOptions mo;
      mo.config = session.config();
      mo.shardRanks = 3;
      session.setMergeOptions(mo);
      if (streaming) {
        for (Rank r = 0; r < trace.numRanks(); ++r) {
          session.ensureRank(r);
          for (const RawRecord& rec : trace.rank(r).records) session.feed(r, rec);
        }
        session.finish();
      } else {
        session.reduce(segmented);
      }
      const auto& result = session.mergeResult();
      EXPECT_TRUE(result.has_value());
      return serializeMergedTrace(result->merged);
    };

    for (int threads : {1, 2, 8}) {
      util::PooledExecutor pool(threads);
      const ReductionConfig cfg = ReductionConfig::defaults(m).withExecutor(pool);
      ReductionSession offline(trace.names(), cfg);
      EXPECT_EQ(mergedBytesOf(offline, false), want)
          << "offline threads=" << threads;
      ReductionSession streaming(trace.names(), cfg);
      EXPECT_EQ(mergedBytesOf(streaming, true), want)
          << "streaming threads=" << threads;
    }
    ReductionSession pooled(trace.names(),
                            ReductionConfig::defaults(m).withExecutor(shared));
    EXPECT_EQ(mergedBytesOf(pooled, false), want) << "pooled executor";
  }
}

TEST(ParallelReduce, MergeStageArmsOnlyBeforeFinalize) {
  StringTable names;
  names.intern("main");
  ReductionSession session(names, ReductionConfig::defaults(Method::kAbsDiff));
  session.reduce({});
  EXPECT_FALSE(session.mergeResult().has_value());  // never armed
  EXPECT_THROW(session.setMergeOptions({}), std::logic_error);
}

TEST(ParallelReduce, OnlineParallelFinishMatchesSerialFinish) {
  const Trace& trace = matrixTrace();
  const ReductionConfig serialCfg{Method::kAvgWave, 0.2};
  const ReductionResult serialFinish = reduceOnline(trace, serialCfg);
  for (int threads : {2, 8}) {
    util::PooledExecutor pool(threads);
    expectIdentical(serialFinish, reduceOnline(trace, serialCfg.withExecutor(pool)),
                    "online finish threads=" + std::to_string(threads));
  }
  util::PooledExecutor pool(2);
  expectIdentical(serialFinish, reduceOnline(trace, serialCfg.withExecutor(pool)),
                  "online finish pooled executor");
}

TEST(ParallelReduce, AutoThreadCountWorks) {
  const Trace& trace = matrixTrace();
  const SegmentedTrace segmented = segmentTrace(trace);
  auto policy = makeDefaultPolicy(Method::kEuclidean);
  const ReductionResult serial = reduceTrace(segmented, trace.names(), *policy);

  util::PooledExecutor pool(0);  // hardware concurrency
  const ReductionResult parallel = reduceTrace(
      segmented, trace.names(),
      ReductionConfig::defaults(Method::kEuclidean).withExecutor(pool));
  expectIdentical(serial, parallel, "auto threads");
}

TEST(ParallelReduce, MoreThreadsThanRanksWorks) {
  const Trace& trace = matrixTrace();
  const SegmentedTrace segmented = segmentTrace(trace);
  auto policy = makeDefaultPolicy(Method::kRelDiff);
  const ReductionResult serial = reduceTrace(segmented, trace.names(), *policy);

  util::PooledExecutor pool(64);
  const ReductionResult parallel = reduceTrace(
      segmented, trace.names(), ReductionConfig::defaults(Method::kRelDiff).withExecutor(pool));
  expectIdentical(serial, parallel, "threads > ranks");
}

TEST(ParallelReduce, EmptyTraceParallelIsEmpty) {
  StringTable names;
  names.intern("main");
  SegmentedTrace segmented;
  util::PooledExecutor pool(8);
  const ReductionConfig cfg{Method::kAvgWave, 0.2, &pool};
  const ReductionResult res = reduceTrace(segmented, names, cfg);
  EXPECT_TRUE(res.reduced.ranks.empty());
  EXPECT_EQ(res.stats.totalSegments, 0u);
  EXPECT_EQ(res.reduced.names.all(), names.all());
}

TEST(ParallelReduce, ProgressReportsEveryRankOnce) {
  const Trace& trace = matrixTrace();
  const SegmentedTrace segmented = segmentTrace(trace);
  // 0 stands for no executor (inline on the calling thread).
  for (int threads : {0, 1, 4}) {
    std::optional<util::PooledExecutor> pool;
    if (threads > 0) pool.emplace(threads);
    const ReductionConfig cfg{Method::kAbsDiff, 1e3, pool ? &*pool : nullptr};
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    reduceTrace(segmented, trace.names(), cfg,
                [&](std::size_t done, std::size_t total) {
                  calls.emplace_back(done, total);
                });
    ASSERT_EQ(calls.size(), segmented.ranks.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].first, i + 1);  // strictly increasing, no gaps
      EXPECT_EQ(calls[i].second, segmented.ranks.size());
    }
  }
}

TEST(ParallelReduce, StatsMergeIsAssociative) {
  const ReductionStats a{10, 3, 7, 8};
  const ReductionStats b{20, 5, 15, 16};
  const ReductionStats c{1, 1, 0, 0};

  ReductionStats leftFirst = a;
  leftFirst.merge(b);
  leftFirst.merge(c);

  ReductionStats rightFirst = b;
  rightFirst.merge(c);
  ReductionStats total = a;
  total.merge(rightFirst);

  EXPECT_EQ(leftFirst, total);
  EXPECT_EQ(total.totalSegments, 31u);
  EXPECT_EQ(total.storedSegments, 9u);
  EXPECT_EQ(total.matches, 22u);
  EXPECT_EQ(total.possibleMatches, 24u);
}

TEST(OnlineReducerSparse, OnlyFedRanksAppearOrderedByRank) {
  StringTable names;
  const NameId ctx = names.intern("main.1");
  OnlineReducer red(names, ReductionConfig{Method::kAbsDiff, 1e9});

  // Feed ranks 7, 2, and 100000 out of order; no intermediate ranks exist.
  auto feedSegment = [&](Rank r, TimeUs at) {
    RawRecord begin{RecordKind::kSegBegin, OpKind::kCompute, ctx, at, {}};
    RawRecord end{RecordKind::kSegEnd, OpKind::kCompute, ctx, at + 10, {}};
    red.feed(r, begin);
    red.feed(r, end);
  };
  feedSegment(7, 0);
  feedSegment(2, 5);
  feedSegment(100000, 9);
  feedSegment(7, 20);

  const ReductionResult res = red.finish();
  ASSERT_EQ(res.reduced.ranks.size(), 3u);
  EXPECT_EQ(res.reduced.ranks[0].rank, 2);
  EXPECT_EQ(res.reduced.ranks[1].rank, 7);
  EXPECT_EQ(res.reduced.ranks[2].rank, 100000);
  EXPECT_EQ(res.reduced.ranks[1].execs.size(), 2u);
  EXPECT_EQ(res.reduced.ranks[1].stored.size(), 1u);  // permissive: one rep
  EXPECT_EQ(res.stats.totalSegments, 4u);
}

TEST(OnlineReducerSparse, RankZeroFeedCacheIsCorrectFromTheFirstRecord) {
  // Rank 0 is a perfectly valid rank id; the feed cache must treat "no rank
  // cached yet" and "rank 0 cached" as different states (the old -1 sentinel
  // encoded this only by accident; std::optional makes it structural).
  StringTable names;
  const NameId ctx = names.intern("main.1");
  OnlineReducer red(names, ReductionConfig{Method::kAbsDiff, 1e9});
  red.feed(0, RawRecord{RecordKind::kSegBegin, OpKind::kCompute, ctx, 0, {}});
  red.feed(0, RawRecord{RecordKind::kSegEnd, OpKind::kCompute, ctx, 10, {}});
  const ReductionResult res = red.finish();
  ASSERT_EQ(res.reduced.ranks.size(), 1u);
  EXPECT_EQ(res.reduced.ranks[0].rank, 0);
  EXPECT_EQ(res.stats.totalSegments, 1u);
}

TEST(OnlineReducerSparse, EnsureRankMirrorsOfflineEmptyRanks) {
  // A trace whose middle rank has no records: the offline reducer emits an
  // empty entry for it; online matches once the rank set is pre-registered.
  Trace trace(3);
  for (Rank r : {Rank(0), Rank(2)}) {
    RankTraceWriter w(trace, r);
    w.segBegin("main.1", 0);
    w.segEnd("main.1", 10);
  }

  auto policy = makeDefaultPolicy(Method::kAbsDiff);
  const ReductionResult offline =
      reduceTrace(segmentTrace(trace), trace.names(), *policy);
  ASSERT_EQ(offline.reduced.ranks.size(), 3u);

  OnlineReducer online(trace.names(), ReductionConfig::defaults(Method::kAbsDiff));
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    online.ensureRank(r);
    for (const RawRecord& rec : trace.rank(r).records) online.feed(r, rec);
  }
  expectIdentical(offline, online.finish(), "ensureRank empty-rank");
}

TEST(OnlineReducerSparse, NegativeRankStillRejected) {
  StringTable names;
  OnlineReducer red(names, ReductionConfig{Method::kAbsDiff, 1.0});
  RawRecord rec{RecordKind::kSegBegin, OpKind::kCompute, names.intern("x"), 0, {}};
  EXPECT_THROW(red.feed(-1, rec), std::invalid_argument);
}

TEST(OnlineReducerSparse, FinishIsTerminal) {
  StringTable names;
  const NameId ctx = names.intern("main.1");
  OnlineReducer red(names, ReductionConfig{Method::kAbsDiff, 1.0});
  red.feed(0, RawRecord{RecordKind::kSegBegin, OpKind::kCompute, ctx, 0, {}});
  red.feed(0, RawRecord{RecordKind::kSegEnd, OpKind::kCompute, ctx, 10, {}});
  red.finish();
  RawRecord rec{RecordKind::kSegBegin, OpKind::kCompute, ctx, 20, {}};
  EXPECT_THROW(red.feed(0, rec), std::logic_error);    // existing rank
  EXPECT_THROW(red.feed(999, rec), std::logic_error);  // brand-new rank
  EXPECT_THROW(red.ensureRank(1), std::logic_error);
  EXPECT_THROW(red.finish(), std::logic_error);
}

}  // namespace
}  // namespace tracered::core
