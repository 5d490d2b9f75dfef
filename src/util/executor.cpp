#include "util/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace tracered::util {

PooledExecutor::PooledExecutor(int threads)
    : threads_(threads <= 0 ? hardwareThreads() : static_cast<std::size_t>(threads)) {}

PooledExecutor::~PooledExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool PooledExecutor::started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !workers_.empty();
}

unsigned PooledExecutor::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void PooledExecutor::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers_.empty()) {
      // A failed spawn (thread-resource exhaustion) throws here, before the
      // task is queued. Workers already running stay: a narrower pool still
      // runs every task.
      workers_.reserve(threads_);
      for (std::size_t i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    }
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void PooledExecutor::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void PooledExecutor::shard(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t workers = std::min(threads_, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  // The helpers reference this frame, so it waits for EVERY one before it
  // returns or rethrows: returning early would free `fn` and the caller's
  // state under a helper still running.
  std::atomic<std::size_t> next{0};
  std::mutex doneMutex;
  std::condition_variable done;
  std::size_t running = workers;
  std::exception_ptr first;
  for (std::size_t w = 0; w < workers; ++w)
    post([&, w] {
      std::exception_ptr error;
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(w, i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(doneMutex);
      if (error && !first) first = error;
      if (--running == 0) done.notify_one();
    });
  std::unique_lock<std::mutex> lock(doneMutex);
  done.wait(lock, [&] { return running == 0; });
  if (first) std::rethrow_exception(first);
}

}  // namespace tracered::util
