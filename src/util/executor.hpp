// The one worker pool: rank-sharded reduction work and the serve daemon's
// strands both run on a PooledExecutor.
//
// Reduction sweeps (9 methods x 6 thresholds, Sec. 5) issue many short
// parallel regions; spawning and joining threads per region dominates small
// runs. A PooledExecutor owns a fixed set of worker threads over one FIFO
// queue, spawned lazily on the first call that needs them and REUSED until
// the executor is destroyed, so a caller that keeps one alive for a whole
// sweep (or a whole daemon run) pays for one spawn/join. Reduction is
// embarrassingly parallel across ranks, so there is no work stealing or
// priority machinery. Inline execution needs no executor: a null
// ReductionConfig::executor (or a null executor passed to core::runSharded)
// runs every item on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tracered::util {

class PooledExecutor {
 public:
  /// `threads` <= 0 selects hardware concurrency. No thread starts here.
  explicit PooledExecutor(int threads = 0);

  /// Runs every task still queued, then joins the workers.
  ~PooledExecutor();

  PooledExecutor(const PooledExecutor&) = delete;
  PooledExecutor& operator=(const PooledExecutor&) = delete;

  /// The pool's width: workers once started, and the most one shard() call
  /// uses (always >= 1).
  std::size_t concurrency() const { return threads_; }

  /// Runs `fn(workerIndex, itemIndex)` for every itemIndex in [0, n) exactly
  /// once, waits for all items, and rethrows the first exception. Items are
  /// claimed dynamically (cheap items free their worker early), and
  /// workerIndex is stable per helper task and below min(concurrency(), n),
  /// so callers can keep per-worker state; callers write results to
  /// per-item slots so output never depends on scheduling. Below two
  /// workers every item runs inline on the calling thread. Several threads
  /// may shard at once, but never a task running on this pool: its worker
  /// would wait on helpers queued behind it.
  void shard(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Queues `task` to run once on a worker, in FIFO order with every other
  /// queued task, and returns at once. An exception escaping `task` calls
  /// std::terminate, as from a std::thread.
  void post(std::function<void()> task);

  /// Whether the workers have been spawned yet (lazy start; observable so
  /// tests can assert serial-sized work never pays for workers).
  bool started() const;

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows it to report 0).
  static unsigned hardwareThreads();

 private:
  void workerLoop();

  std::size_t threads_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;  ///< empty until the first post()
  bool stop_ = false;
};

}  // namespace tracered::util
