// Execution policy abstraction for rank-sharded work.
//
// Reduction sweeps (9 methods x 6 thresholds, Sec. 5) issue many short
// parallel regions; paying ThreadPool spawn/join per region dominates small
// runs. An Executor separates "how work is sharded" from "who owns the
// workers": PooledExecutor owns one lazily started ThreadPool that is REUSED
// across shard() calls, so a caller that keeps a PooledExecutor alive for a
// whole sweep amortizes worker churn to a single spawn/join. Inline execution
// needs no executor: a null ReductionConfig::executor (or a null executor
// passed to core::runSharded) runs every item on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "util/thread_pool.hpp"

namespace tracered::util {

/// How a batch of independent items gets run. Implementations must be
/// deterministic-friendly: shard() passes a stable workerIndex in
/// [0, min(concurrency(), n)) so callers can keep per-worker state, and
/// callers write results to per-item slots so output never depends on
/// scheduling.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Upper bound on workers one shard() call may use (always >= 1).
  virtual std::size_t concurrency() const = 0;

  /// Runs `fn(workerIndex, itemIndex)` for every itemIndex in [0, n) exactly
  /// once, waits for all items, and rethrows the first exception. Items are
  /// claimed dynamically (cheap items free their worker early).
  virtual void shard(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn) = 0;
};

/// Owns a reusable ThreadPool. The pool is spawned lazily on the first
/// shard() call that actually needs parallelism and then lives for the
/// executor's lifetime, so back-to-back reductions share one set of workers.
/// shard() itself must be called from one thread at a time (the pool is
/// internally thread-safe, but concurrent shards would interleave worker
/// indices); that matches the drivers, which shard from the calling thread.
class PooledExecutor final : public Executor {
 public:
  /// `threads` <= 0 selects hardware concurrency.
  explicit PooledExecutor(int threads = 0);
  ~PooledExecutor() override;

  std::size_t concurrency() const override { return threads_; }
  void shard(std::size_t n,
             const std::function<void(std::size_t, std::size_t)>& fn) override;

  /// Whether the worker pool has been spawned yet (lazy start; observable so
  /// tests can assert serial-sized work never pays for workers).
  bool started() const;

 private:
  ThreadPool& ensurePool();

  std::size_t threads_;
  mutable std::mutex mutex_;  ///< guards lazy pool_ creation
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tracered::util
