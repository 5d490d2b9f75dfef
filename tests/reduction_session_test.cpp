// Tests for the ReductionSession facade: offline reduce() == streaming
// feed()/finish() == the serial policy-level driver (the acceptance sweep:
// all nine methods through one shared PooledExecutor, bit-identical to
// serial), the progress callback, and the single-shot lifecycle errors.
// The streaming lanes themselves are covered by online_reducer_test.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tracered.hpp"

#include "eval/workloads.hpp"

namespace tracered::core {
namespace {

const Trace& sessionTrace() {
  static const Trace trace = [] {
    eval::WorkloadOptions opts;
    opts.scale = 0.15;
    return eval::runWorkload("late_sender", opts);
  }();
  return trace;
}

void expectIdentical(const ReductionResult& a, const ReductionResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.stats, b.stats) << what;
  EXPECT_EQ(a.reduced.names.all(), b.reduced.names.all()) << what;
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size()) << what;
  for (std::size_t i = 0; i < a.reduced.ranks.size(); ++i)
    EXPECT_EQ(a.reduced.ranks[i], b.reduced.ranks[i]) << what << " rank " << i;
}

TEST(ReductionSession, NineMethodSweepThroughSharedPoolMatchesSerialSeedPath) {
  const Trace& trace = sessionTrace();
  const SegmentedTrace segmented = segmentTrace(trace);

  util::PooledExecutor pool(4);  // ONE executor shared by all 18 sessions
  for (Method m : allMethods()) {
    SCOPED_TRACE(methodName(m));
    const ReductionConfig config = ReductionConfig::defaults(m);

    // The serial seed path: one policy, rank by rank.
    auto policy = config.makePolicy();
    const ReductionResult serial = reduceTrace(segmented, trace.names(), *policy);

    // Offline session through the shared pool.
    ReductionSession offline(trace.names(), config.withExecutor(pool));
    expectIdentical(serial, offline.reduce(segmented), "session reduce");

    // Streaming session through the same shared pool.
    ReductionSession online(trace.names(), config.withExecutor(pool));
    for (Rank r = 0; r < trace.numRanks(); ++r)
      for (const RawRecord& rec : trace.rank(r).records) online.feed(r, rec);
    expectIdentical(serial, online.finish(), "session feed/finish");
  }
}

TEST(ReductionSession, ProgressReportsRanksCompletedOfTotal) {
  const Trace& trace = sessionTrace();
  const SegmentedTrace segmented = segmentTrace(trace);

  util::PooledExecutor pool(4);
  ReductionSession session(trace.names(),
                           ReductionConfig{Method::kAvgWave, 0.2}.withExecutor(pool));
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  session.onProgress(
      [&](std::size_t done, std::size_t total) { calls.emplace_back(done, total); });
  session.reduce(segmented);

  ASSERT_EQ(calls.size(), segmented.ranks.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i + 1);
    EXPECT_EQ(calls[i].second, segmented.ranks.size());
  }
}

TEST(ReductionSession, StreamingProgressFiresOnFinish) {
  const Trace& trace = sessionTrace();
  ReductionSession session(trace.names(), ReductionConfig{Method::kAbsDiff, 1e3});
  std::size_t lastDone = 0, lastTotal = 0, count = 0;
  session.onProgress([&](std::size_t done, std::size_t total) {
    lastDone = done;
    lastTotal = total;
    ++count;
  });
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) session.feed(r, rec);
  EXPECT_EQ(count, 0u);  // nothing reported while streaming
  session.finish();
  EXPECT_EQ(count, static_cast<std::size_t>(trace.numRanks()));
  EXPECT_EQ(lastDone, lastTotal);
  EXPECT_EQ(lastTotal, static_cast<std::size_t>(trace.numRanks()));
}

TEST(ReductionSession, EnsureRankMirrorsOfflineEmptyRanks) {
  Trace trace(3);
  for (Rank r : {Rank(0), Rank(2)}) {
    RankTraceWriter w(trace, r);
    w.segBegin("main.1", 0);
    w.segEnd("main.1", 10);
  }
  ReductionSession offline(trace.names(), ReductionConfig::defaults(Method::kAbsDiff));
  const ReductionResult viaReduce = offline.reduce(segmentTrace(trace));

  ReductionSession online(trace.names(), ReductionConfig::defaults(Method::kAbsDiff));
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    online.ensureRank(r);
    for (const RawRecord& rec : trace.rank(r).records) online.feed(r, rec);
  }
  expectIdentical(viaReduce, online.finish(), "ensureRank");
}

TEST(ReductionSession, FinishWithoutFeedingIsEmpty) {
  StringTable names;
  names.intern("main");
  ReductionSession session(names, ReductionConfig{Method::kAvgWave, 0.2});
  const ReductionResult res = session.finish();
  EXPECT_TRUE(res.reduced.ranks.empty());
  EXPECT_EQ(res.stats.totalSegments, 0u);
  EXPECT_EQ(res.reduced.names.all(), names.all());
}

TEST(ReductionSession, SessionIsSingleShot) {
  Trace trace(1);
  {
    RankTraceWriter w(trace, 0);
    w.segBegin("main.1", 0);
    w.segEnd("main.1", 10);
  }
  const SegmentedTrace segmented = segmentTrace(trace);
  const RawRecord rec{RecordKind::kSegBegin, OpKind::kCompute,
                      trace.names().intern("main.1"), 20, {}};

  {
    // reduce() finalizes: no more feed/reduce/finish.
    ReductionSession session(trace.names(), ReductionConfig{Method::kAvgWave, 0.2});
    session.reduce(segmented);
    EXPECT_THROW(session.feed(0, rec), std::logic_error);
    EXPECT_THROW(session.reduce(segmented), std::logic_error);
    EXPECT_THROW(session.finish(), std::logic_error);
    EXPECT_THROW(session.ensureRank(0), std::logic_error);
  }
  {
    // finish() finalizes a streaming session the same way.
    ReductionSession session(trace.names(), ReductionConfig{Method::kAvgWave, 0.2});
    session.feed(0, rec);
    RawRecord end = rec;
    end.kind = RecordKind::kSegEnd;
    end.time = 30;
    session.feed(0, end);
    session.finish();
    EXPECT_THROW(session.feed(0, rec), std::logic_error);
    EXPECT_THROW(session.finish(), std::logic_error);
  }
  {
    // Feeding commits to streaming: reduce() refuses instead of dropping
    // the fed records.
    ReductionSession session(trace.names(), ReductionConfig{Method::kAvgWave, 0.2});
    session.feed(0, rec);
    EXPECT_THROW(session.reduce(segmented), std::logic_error);
  }
  {
    // ensureRank() commits to streaming too: the pre-registered rank would
    // be silently dropped by an offline reduce().
    ReductionSession session(trace.names(), ReductionConfig{Method::kAvgWave, 0.2});
    session.ensureRank(3);
    EXPECT_THROW(session.reduce(segmented), std::logic_error);
  }
}

TEST(ReductionSession, ConfigIsObservable) {
  StringTable names;
  util::PooledExecutor exec(1);
  ReductionSession session(names,
                           ReductionConfig{Method::kIterK, 50.0}.withExecutor(exec));
  EXPECT_EQ(session.config().method, Method::kIterK);
  EXPECT_DOUBLE_EQ(session.config().threshold, 50.0);
  EXPECT_EQ(session.config().executor, &exec);
}

}  // namespace
}  // namespace tracered::core
