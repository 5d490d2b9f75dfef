// Spans for the benchmark's traced mode.
//
// A span brackets one call the benchmark makes into a layer's public
// function (trace.decode around deserializeFullTrace, core.reduce around
// ReductionSession::reduce, ...). Spans are kept in memory and written once,
// at exit, as chrome-trace JSON that Perfetto and chrome://tracing open.
// The spans live in the benchmark only; the library itself is not
// instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string, e.g. "trace.decode"
  std::int64_t startNs = 0;  ///< steady clock, relative to the log's epoch
  std::int64_t endNs = -1;   ///< -1 while open
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t op = 0;      ///< operation id shared by one operation's spans
  int tid = 0;               ///< small per-thread id
};

/// Append-only span store, safe to use from several threads.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span on the calling thread, nested in the thread's innermost
  /// open span, and returns its index.
  std::size_t open(const char* name, std::uint64_t op);
  void close(std::size_t index);

  std::vector<Span> snapshot() const;

  /// Writes every closed span as chrome-trace "X" events; returns false if
  /// the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::int64_t nowNs() const;

  std::int64_t epochNs_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. A null log records nothing, so untraced operations run the
/// same code with no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// For every closed root span named `rootName`, in start order: the self
/// time in ms (duration minus the part covered by child spans) of each span
/// name in its tree, the root's own included.
std::vector<std::map<std::string, double>> selfTimes(const std::vector<Span>& spans,
                                                     const char* rootName);

}  // namespace perfbench
