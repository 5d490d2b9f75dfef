#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

// Innermost open span of this thread (-1: none). Spans nest per thread,
// which is exactly how the benchmark's calls nest.
thread_local std::int64_t tlsOpen = -1;

int threadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

SpanLog::SpanLog() : epochNs_(0) {
  epochNs_ = nowNs();
  spans_.reserve(1 << 16);
}

std::int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epochNs_;
}

std::size_t SpanLog::open(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.parent = tlsOpen;
  s.op = op;
  s.tid = threadId();
  std::lock_guard<std::mutex> lock(mutex_);
  s.startNs = nowNs();
  spans_.push_back(s);
  tlsOpen = static_cast<std::int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  const std::int64_t end = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].endNs = end;
  tlsOpen = spans_[index].parent;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.endNs < 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}",
                 first ? "" : ",", s.name,
                 static_cast<int>(std::strcspn(s.name, ".")), s.name, s.tid,
                 static_cast<double>(s.startNs) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3,
                 static_cast<unsigned long long>(s.op), i,
                 static_cast<long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<std::map<std::string, double>> selfTimes(const std::vector<Span>& spans,
                                                     const char* rootName) {
  // Children close before their parent and never overlap one another (they
  // run in sequence on the parent's thread), so a span's self time is its
  // duration minus the sum of its direct children's durations.
  auto ms = [](const Span& s) { return static_cast<double>(s.endNs - s.startNs) / 1e6; };
  std::vector<double> childMs(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0 && s.endNs >= 0) childMs[static_cast<std::size_t>(s.parent)] += ms(s);

  std::map<std::int64_t, std::size_t> slot;  // root span index -> result index
  std::vector<std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].endNs < 0) continue;
    std::int64_t root = static_cast<std::int64_t>(i);
    while (spans[static_cast<std::size_t>(root)].parent >= 0)
      root = spans[static_cast<std::size_t>(root)].parent;
    const Span& r = spans[static_cast<std::size_t>(root)];
    if (std::strcmp(r.name, rootName) != 0 || r.endNs < 0) continue;
    const auto [it, inserted] = slot.try_emplace(root, out.size());
    if (inserted) out.emplace_back();
    out[it->second][spans[i].name] += ms(spans[i]) - childMs[i];
  }
  return out;
}

}  // namespace perfbench
