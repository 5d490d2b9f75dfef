#include "util/executor.hpp"

#include <algorithm>
#include <atomic>

namespace tracered::util {

PooledExecutor::PooledExecutor(int threads)
    : threads_(threads <= 0 ? ThreadPool::hardwareThreads()
                            : static_cast<std::size_t>(threads)) {}

PooledExecutor::~PooledExecutor() = default;

bool PooledExecutor::started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pool_ != nullptr;
}

ThreadPool& PooledExecutor::ensurePool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

void PooledExecutor::shard(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t workers = std::min(threads_, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  ThreadPool& pool = ensurePool();
  std::atomic<std::size_t> next{0};
  runOnWorkers(pool, workers, [&](std::size_t w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(w, i);
  });
}

}  // namespace tracered::util
