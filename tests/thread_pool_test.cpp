// Tests for the rank-sharding thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace tracered::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);

  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] {});
  f.get();
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
  }  // join
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto after = pool.submit([] {});
  EXPECT_NO_THROW(after.get());
}

TEST(ThreadPool, RunOnWorkersCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(3);
  runOnWorkers(pool, 3, [&](std::size_t w) { ++hits.at(w); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnWorkersRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(runOnWorkers(pool, 2,
                            [](std::size_t w) {
                              if (w == 1) throw std::logic_error("worker 1");
                            }),
               std::logic_error);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, ShardedSumMatchesSerial) {
  const std::size_t n = 10000;
  std::vector<long> values(n);
  std::iota(values.begin(), values.end(), 1);
  const long expected = std::accumulate(values.begin(), values.end(), 0L);

  ThreadPool pool(4);
  std::atomic<std::size_t> next{0};
  std::vector<long> partial(4, 0);
  runOnWorkers(pool, 4, [&](std::size_t w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
      partial[w] += values[i];
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L), expected);
}

}  // namespace
}  // namespace tracered::util
