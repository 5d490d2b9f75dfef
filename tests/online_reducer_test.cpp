// Tests for online (streaming) reduction through ReductionSession's per-rank
// lanes: bit-equivalence with the offline pipeline, stream validation through
// the segmenter (every short stream accepted or rejected exactly as
// segmentTrace does), retained-memory accounting, and reconstruction from a
// streamed reduction.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracered.hpp"

#include "eval/workloads.hpp"

namespace tracered::core {
namespace {

eval::WorkloadOptions tiny() {
  eval::WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

ReductionResult offline(const Trace& trace, Method m, double thr) {
  auto policy = makePolicy(m, thr);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy);
}

ReductionResult streamed(const Trace& trace, Method m, double thr) {
  ReductionSession session(trace.names(), ReductionConfig{m, thr});
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) session.feed(r, rec);
  return session.finish();
}

void expectEqual(const ReductionResult& a, const ReductionResult& b) {
  EXPECT_EQ(a.stats.totalSegments, b.stats.totalSegments);
  EXPECT_EQ(a.stats.matches, b.stats.matches);
  EXPECT_EQ(a.stats.possibleMatches, b.stats.possibleMatches);
  EXPECT_EQ(a.stats.storedSegments, b.stats.storedSegments);
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size());
  for (std::size_t r = 0; r < a.reduced.ranks.size(); ++r) {
    EXPECT_EQ(a.reduced.ranks[r].execs, b.reduced.ranks[r].execs);
    ASSERT_EQ(a.reduced.ranks[r].stored.size(), b.reduced.ranks[r].stored.size());
    for (std::size_t s = 0; s < a.reduced.ranks[r].stored.size(); ++s) {
      EXPECT_EQ(a.reduced.ranks[r].stored[s].events, b.reduced.ranks[r].stored[s].events);
      EXPECT_EQ(a.reduced.ranks[r].stored[s].end, b.reduced.ranks[r].stored[s].end);
    }
  }
}

RawRecord rec(RecordKind kind, NameId name, TimeUs time) {
  RawRecord r;
  r.kind = kind;
  r.name = name;
  r.time = time;
  return r;
}

TEST(OnlineReduction, StreamingMatchesOfflineForEveryMethod) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  for (Method m : allMethods()) {
    SCOPED_TRACE(methodName(m));
    expectEqual(streamed(trace, m, defaultThreshold(m)),
                offline(trace, m, defaultThreshold(m)));
  }
}

TEST(OnlineReduction, StreamingMatchesOfflineOnNoisyWorkload) {
  const Trace trace = eval::runWorkload("1to1r_1024", tiny());
  expectEqual(streamed(trace, Method::kAvgWave, 0.2),
              offline(trace, Method::kAvgWave, 0.2));
}

TEST(OnlineReduction, StreamingMatchesOfflineOnSweep3D) {
  sweep3d::Sweep3DConfig cfg = sweep3d::config8p();
  cfg.iterations = 2;
  const Trace trace = sweep3d::runSweep3D(cfg);
  expectEqual(streamed(trace, Method::kEuclidean, 0.2),
              offline(trace, Method::kEuclidean, 0.2));
}

TEST(OnlineReduction, RejectsMalformedStreams) {
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  const ReductionConfig config{Method::kAbsDiff, 1e9};
  {
    ReductionSession session(names, config);
    EXPECT_THROW(session.feed(0, rec(RecordKind::kEnter, fn, 0)),
                 std::runtime_error);  // event outside segment
  }
  {
    ReductionSession session(names, config);
    session.feed(0, rec(RecordKind::kSegBegin, ctx, 0));
    EXPECT_THROW(session.feed(0, rec(RecordKind::kSegEnd, fn, 0)),  // wrong context
                 std::runtime_error);
  }
  {
    ReductionSession session(names, config);
    session.feed(0, rec(RecordKind::kSegBegin, ctx, 0));
    EXPECT_THROW(session.finish(), std::runtime_error);  // open segment at end
  }
}

TEST(OnlineReduction, RejectsNonMonotonicTimestamps) {
  // Negative durations must never flow into reduction: a segment end or
  // event exit before its begin (or an enter before its segment began) is a
  // malformed stream, rejected with rank + record context.
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  const ReductionConfig config{Method::kAbsDiff, 1e9};

  {
    ReductionSession session(names, config);
    session.feed(3, rec(RecordKind::kSegBegin, ctx, 100));
    try {
      session.feed(3, rec(RecordKind::kSegEnd, ctx, 50));  // ends before it began
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
      EXPECT_NE(what.find("before its begin"), std::string::npos) << what;
    }
  }
  {
    ReductionSession session(names, config);
    session.feed(0, rec(RecordKind::kSegBegin, ctx, 100));
    session.feed(0, rec(RecordKind::kEnter, fn, 150));
    try {
      session.feed(0, rec(RecordKind::kExit, fn, 140));  // exits before it entered
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("before its enter"), std::string::npos) << what;
    }
  }
  {
    ReductionSession session(names, config);
    session.feed(0, rec(RecordKind::kSegBegin, ctx, 100));
    EXPECT_THROW(session.feed(0, rec(RecordKind::kEnter, fn, 90)),  // before segment
                 std::runtime_error);
  }
  {
    // Equal timestamps (zero-length segment / event) remain valid.
    ReductionSession session(names, config);
    session.feed(0, rec(RecordKind::kSegBegin, ctx, 100));
    session.feed(0, rec(RecordKind::kEnter, fn, 100));
    session.feed(0, rec(RecordKind::kExit, fn, 100));
    session.feed(0, rec(RecordKind::kSegEnd, ctx, 100));
    EXPECT_EQ(session.finish().stats.totalSegments, 1u);
  }
}

// The differential check that the streaming and offline paths share one
// record->segment state machine: every one-rank stream of up to four records
// over {begin, end, enter, exit} x 2 names x 2 times (69905 streams) is
// either accepted by both segmentTrace and the session, with identical
// results, or rejected by both with the same message.
TEST(OnlineReduction, StreamingAndOfflineAgreeOnEveryShortStream) {
  Trace trace(1);
  const NameId names[] = {trace.names().intern("a"), trace.names().intern("b")};
  const RecordKind kinds[] = {RecordKind::kSegBegin, RecordKind::kSegEnd,
                              RecordKind::kEnter, RecordKind::kExit};
  std::vector<RawRecord> alphabet;
  for (RecordKind kind : kinds)
    for (NameId name : names)
      for (TimeUs time : {TimeUs(0), TimeUs(1)}) alphabet.push_back(rec(kind, name, time));
  const ReductionConfig config = ReductionConfig::defaults(Method::kAbsDiff);

  std::vector<RawRecord>& stream = trace.rank(0).records;
  std::size_t streams = 0, accepted = 0;
  auto check = [&] {
    ++streams;
    std::optional<std::string> offlineError, streamingError;
    std::optional<ReductionResult> viaReduce, viaFeed;
    try {
      ReductionSession session(trace.names(), config);
      viaReduce = session.reduce(segmentTrace(trace));
    } catch (const std::runtime_error& e) {
      offlineError = e.what();
    }
    try {
      ReductionSession session(trace.names(), config);
      session.ensureRank(0);  // an empty stream still yields rank 0's entry
      for (const RawRecord& r : stream) session.feed(0, r);
      viaFeed = session.finish();
    } catch (const std::runtime_error& e) {
      streamingError = e.what();
    }
    ASSERT_EQ(offlineError, streamingError) << "stream #" << streams;
    if (offlineError) return;
    ++accepted;
    ASSERT_EQ(viaReduce->reduced.ranks, viaFeed->reduced.ranks) << "stream #" << streams;
    ASSERT_EQ(viaReduce->stats, viaFeed->stats) << "stream #" << streams;
    ASSERT_EQ(viaReduce->counters, viaFeed->counters) << "stream #" << streams;
  };
  // Every stream of length <= 4, as base-16 numerals of each length.
  for (std::size_t len = 0; len <= 4; ++len) {
    std::size_t count = 1;
    for (std::size_t i = 0; i < len; ++i) count *= alphabet.size();
    for (std::size_t code = 0; code < count; ++code) {
      stream.clear();
      for (std::size_t i = 0, c = code; i < len; ++i, c /= alphabet.size())
        stream.push_back(alphabet[c % alphabet.size()]);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(streams, 69905u);
  EXPECT_GT(accepted, 0u);
}

TEST(OnlineReduction, RetainedBytesGrowWithStoredSegments) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  ReductionSession strict(trace.names(), ReductionConfig{Method::kAbsDiff, 0.0});
  ReductionSession loose(trace.names(), ReductionConfig{Method::kAbsDiff, 1e9});
  for (const RawRecord& r : trace.rank(0).records) {
    strict.feed(0, r);
    loose.feed(0, r);
  }
  EXPECT_GT(strict.retainedBytes(), loose.retainedBytes());
}

TEST(OnlineReduction, RetainedBytesSumTheLanes) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  const ReductionConfig config{Method::kAbsDiff, 0.0};
  ReductionSession both(trace.names(), config);
  std::size_t separately = 0;
  for (Rank r : {Rank(0), Rank(1)}) {
    ReductionSession one(trace.names(), config);
    for (const RawRecord& x : trace.rank(r).records) {
      one.feed(r, x);
      both.feed(r, x);
    }
    separately += one.retainedBytes();
  }
  EXPECT_EQ(both.retainedBytes(), separately);
}

TEST(OnlineReduction, ReconstructionFromStreamedReductionWorks) {
  const Trace trace = eval::runWorkload("early_gather", tiny());
  const ReductionResult res = streamed(trace, Method::kManhattan, 0.4);
  const SegmentedTrace rebuilt = reconstruct(res.reduced);
  EXPECT_EQ(rebuilt.totalSegments(), segmentTrace(trace).totalSegments());
}

TEST(OnlineReduction, NegativeRankRejected) {
  StringTable names;
  ReductionSession session(names, ReductionConfig{Method::kAbsDiff, 1.0});
  EXPECT_THROW(session.feed(-1, rec(RecordKind::kSegBegin, 0, 0)), std::invalid_argument);
  EXPECT_THROW(session.ensureRank(-1), std::invalid_argument);
}

}  // namespace
}  // namespace tracered::core
