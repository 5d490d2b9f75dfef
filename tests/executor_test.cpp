// Tests for the one worker pool: inline (null executor) and pooled sharding
// semantics, fire-and-forget tasks, lazy start, reuse and draining, and —
// the property the pool exists for — one PooledExecutor driving
// back-to-back reduceTrace/finish calls staying bit-identical to the serial
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "util/executor.hpp"

namespace tracered::util {
namespace {

// A null executor is the inline path every driver takes without a pool.
TEST(InlineSharding, RunsEveryItemInOrderOnWorkerZero) {
  EXPECT_EQ(core::shardWorkers(nullptr, 5), 1u);
  std::vector<std::size_t> items;
  core::runSharded(nullptr, 5, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    items.push_back(i);
  });
  EXPECT_EQ(items, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(InlineSharding, ZeroItemsIsANoop) {
  bool progressed = false;
  core::runSharded(
      nullptr, 0, [](std::size_t, std::size_t) { FAIL() << "no items to run"; },
      [&](std::size_t, std::size_t) { progressed = true; });
  EXPECT_FALSE(progressed);
}

TEST(InlineSharding, ProgressIsStrictlyIncreasing) {
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  core::runSharded(
      nullptr, 4, [](std::size_t, std::size_t) {},
      [&](std::size_t done, std::size_t total) { calls.emplace_back(done, total); });
  ASSERT_EQ(calls.size(), 4u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i + 1);
    EXPECT_EQ(calls[i].second, 4u);
  }
}

TEST(PooledExecutor, ResolvesThreadCounts) {
  EXPECT_EQ(PooledExecutor(4).concurrency(), 4u);
  EXPECT_EQ(PooledExecutor(1).concurrency(), 1u);
  EXPECT_EQ(PooledExecutor(0).concurrency(), PooledExecutor::hardwareThreads());
  EXPECT_EQ(PooledExecutor(-3).concurrency(), PooledExecutor::hardwareThreads());
}

TEST(PooledExecutor, WidthIsAtLeastOne) {
  EXPECT_GE(PooledExecutor::hardwareThreads(), 1u);
  for (const int threads : {-1, 0, 1}) EXPECT_GE(PooledExecutor(threads).concurrency(), 1u);
  // A width-1 pool still runs posted work, on its one worker.
  std::atomic<int> runs{0};
  {
    PooledExecutor exec(1);
    exec.post([&] { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(PooledExecutor, RunsEveryTaskPostedFromSeveralThreads) {
  std::atomic<int> runs{0};
  {
    PooledExecutor exec(4);
    std::vector<std::thread> posters;
    for (int t = 0; t < 4; ++t)
      posters.emplace_back([&] {
        for (int i = 0; i < 100; ++i) exec.post([&] { runs.fetch_add(1); });
      });
    for (std::thread& p : posters) p.join();
    EXPECT_TRUE(exec.started());
  }  // drains and joins
  EXPECT_EQ(runs.load(), 400);
}

TEST(PooledExecutor, DestructionDrainsQueuedTasksAndJoins) {
  std::atomic<int> runs{0};
  {
    PooledExecutor exec(1);
    // The first task holds the only worker, so the rest are still queued
    // when the destructor starts.
    exec.post([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      runs.fetch_add(1);
    });
    for (int i = 0; i < 50; ++i) exec.post([&] { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 51);
}

TEST(PooledExecutor, ShardedSumMatchesSerial) {
  const std::size_t n = 10000;
  std::vector<long> values(n);
  std::iota(values.begin(), values.end(), 1);
  const long expected = std::accumulate(values.begin(), values.end(), 0L);

  PooledExecutor exec(4);
  std::vector<long> partial(exec.concurrency(), 0);  // one slot per worker index
  exec.shard(n, [&](std::size_t w, std::size_t i) { partial[w] += values[i]; });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L), expected);
}

TEST(PooledExecutor, SeveralThreadsMayShardAtOnce) {
  PooledExecutor exec(3);
  std::vector<std::atomic<int>> counts(2 * 64);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c)
    callers.emplace_back([&, c] {
      exec.shard(64, [&](std::size_t, std::size_t i) { counts[c * 64 + i].fetch_add(1); });
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(PooledExecutor, StartsLazilyAndOnlyForParallelWork) {
  PooledExecutor exec(4);
  EXPECT_FALSE(exec.started());

  // Serial-sized work never pays for workers.
  exec.shard(0, [](std::size_t, std::size_t) {});
  exec.shard(1, [](std::size_t w, std::size_t) { EXPECT_EQ(w, 0u); });
  EXPECT_FALSE(exec.started());

  std::atomic<int> runs{0};
  exec.shard(8, [&](std::size_t, std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 8);
  EXPECT_TRUE(exec.started());
}

TEST(PooledExecutor, RunsEveryItemExactlyOnceWithBoundedWorkerIndex) {
  PooledExecutor exec(3);
  const std::size_t n = 100;
  std::vector<std::atomic<int>> counts(n);
  std::atomic<std::size_t> maxWorker{0};
  exec.shard(n, [&](std::size_t worker, std::size_t i) {
    counts[i].fetch_add(1);
    std::size_t seen = maxWorker.load();
    while (worker > seen && !maxWorker.compare_exchange_weak(seen, worker)) {
    }
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
  EXPECT_LT(maxWorker.load(), 3u);
}

TEST(PooledExecutor, ClampsWorkersToItemCount) {
  // 8 configured threads, 2 items: worker indices must stay below
  // min(concurrency, n) so per-worker state arrays sized that way are safe.
  PooledExecutor exec(8);
  std::atomic<std::size_t> maxWorker{0};
  exec.shard(2, [&](std::size_t worker, std::size_t) {
    std::size_t seen = maxWorker.load();
    while (worker > seen && !maxWorker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_LT(maxWorker.load(), 2u);
}

TEST(PooledExecutor, PropagatesExceptionsAndStaysUsable) {
  PooledExecutor exec(2);
  EXPECT_THROW(exec.shard(4,
                          [](std::size_t, std::size_t i) {
                            if (i == 2) throw std::runtime_error("boom");
                          }),
               std::runtime_error);
  // The pool survives a failed shard and keeps working.
  std::atomic<int> runs{0};
  exec.shard(4, [&](std::size_t, std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 4);
}

// --- executor reuse across reductions ---------------------------------------

const Trace& sharedTrace() {
  static const Trace trace = [] {
    eval::WorkloadOptions opts;
    opts.scale = 0.15;
    return eval::runWorkload("late_sender", opts);
  }();
  return trace;
}

void expectIdentical(const core::ReductionResult& a, const core::ReductionResult& b) {
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size());
  for (std::size_t i = 0; i < a.reduced.ranks.size(); ++i)
    EXPECT_EQ(a.reduced.ranks[i], b.reduced.ranks[i]) << "rank " << i;
}

TEST(PooledExecutor, BackToBackReductionsMatchSerialBitForBit) {
  const Trace& trace = sharedTrace();
  const SegmentedTrace segmented = segmentTrace(trace);

  PooledExecutor shared(4);  // ONE pool for the whole sweep below
  for (core::Method m : core::allMethods()) {
    SCOPED_TRACE(core::methodName(m));
    const core::ReductionConfig config = core::ReductionConfig::defaults(m);

    auto policy = config.makePolicy();
    const core::ReductionResult serial =
        core::reduceTrace(segmented, trace.names(), *policy);

    // Offline through the shared executor.
    const core::ReductionResult pooled =
        core::reduceTrace(segmented, trace.names(), config.withExecutor(shared));
    expectIdentical(serial, pooled);

    // Streaming finish through the SAME executor, still bit-identical.
    core::ReductionSession online(trace.names(), config.withExecutor(shared));
    for (Rank r = 0; r < trace.numRanks(); ++r)
      for (const RawRecord& rec : trace.rank(r).records) online.feed(r, rec);
    expectIdentical(serial, online.finish());
  }
  EXPECT_TRUE(shared.started());
}

}  // namespace
}  // namespace tracered::util
