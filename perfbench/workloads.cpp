#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/cross_rank.hpp"
#include "core/reduction_config.hpp"
#include "core/reduction_session.hpp"
#include "eval/scenarios.hpp"
#include "eval/workloads.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

using namespace tracered;
using Clock = std::chrono::steady_clock;
using Bytes = std::vector<std::uint8_t>;

constexpr double kMiB = 1024.0 * 1024.0;
// A failed operation counts as slower than every latency limit.
constexpr double kFailedMs = 1e300;
// Ten samples must lie beyond p90, so a run times at least this many
// operations even if --seconds runs out first.
constexpr std::size_t kMinOps = 100;
// Verification failures named on stderr per run; the rest are only counted.
constexpr int kMaxReportedFailures = 10;
// Set-ups timed per run, all before the first operation; setup_s is their
// median.
constexpr int kSetupReps = 7;

// ------------------------------------------------------------- metrics --

// Every metric either mode reports, in report order. A layer a workload
// does not exercise reports 0.
struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"op_ms_p50", "ms"},          {"op_ms_p90", "ms"},
    {"throughput_mib_s", "MiB/s"}, {"reduced_pct", "%"},
    {"peak_rss_mib", "MiB"},      {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"bench.op_samples", "count"},
    {"bench.unaccounted_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"setup.generate_ms", "ms"},
    {"setup.encode_ms", "ms"},
    {"setup.daemon_ms", "ms"},
    {"trace.decode_ms", "ms"},
    {"trace.segment_ms", "ms"},
    {"trace.encode_ms", "ms"},
    {"trace.records", "count"},
    {"trace.segments", "count"},
    {"core.reduce_ms", "ms"},
    {"core.stored", "count"},
    {"core.match.comparisons", "count"},
    {"core.match.exact_evals", "count"},
    {"core.match.index_pruned", "count"},
    {"core.match.index_decided", "count"},
    {"core.match.pivot_dist_evals", "count"},
    {"core.match.comparisons_per_segment", "ratio"},
    {"core.match.index_prune_rate", "ratio"},
    {"core.merge_ms", "ms"},
    {"core.merge.input_reps", "count"},
    {"core.merge.output_reps", "count"},
    {"core.merge.comparisons", "count"},
    {"core.merge.exact_evals", "count"},
    {"core.merge.pivot_dist_evals", "count"},
    {"serve.server_reduce_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p90", "ms"},
    {"serve.large_rtt_ms_p50", "ms"},
    {"serve.gen_late_ms_p90", "ms"},
    {"serve.traces_served", "count"},
    {"serve.protocol_errors", "count"},
    {"serve.abrupt_disconnects", "count"},
    {"serve.peak_conn_buffered_kib", "KiB"},
};

std::vector<Metric> collect(const std::vector<MetricDef>& defs,
                            const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

double msBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Nearest-rank percentile (p in (0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peakRssMib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Moves threads round robin over the CPUs the process may run on, one CPU
/// per step. On a shared host each vCPU has slow stretches of its own (a
/// neighbour busy on the same physical core), a few to tens of seconds long
/// and nearly uncorrelated between vCPUs. A thread the scheduler leaves on
/// one vCPU for a whole run measures that vCPU's stretches; stepping to the
/// next vCPU before every set-up and operation makes each run sample all of
/// them. The destructor, and release(), restore the original CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU.
  void step() {
    if (cpus_.size() < 2) return;
    pinned_ = pin(0, cpus_[next_++ % cpus_.size()]) || pinned_;
  }

  /// Pins every thread of the process, the daemon's included, thread i (in
  /// thread-id order) to the i-th CPU from the next one, so threads keep
  /// CPUs of their own while there are no more threads than CPUs. Threads
  /// are listed from /proc/self/task; without it nothing moves.
  void stepAllThreads() {
    if (cpus_.size() < 2) return;
    const std::vector<pid_t> tids = threadIds();
    for (std::size_t i = 0; i < tids.size(); ++i)
      pinned_ = pin(tids[i], cpus_[(next_ + i) % cpus_.size()]) || pinned_;
    ++next_;
  }

  /// Unpins every thread of the process; threads started afterwards may run
  /// anywhere.
  void release() {
    if (!pinned_) return;
    ::sched_setaffinity(0, sizeof allowed_, &allowed_);
    for (const pid_t tid : threadIds()) ::sched_setaffinity(tid, sizeof allowed_, &allowed_);
    pinned_ = false;
  }

 private:
  static bool pin(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(tid, sizeof one, &one) == 0;
  }

  static std::vector<pid_t> threadIds() {
    std::vector<pid_t> tids;
    std::error_code ec;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
         it.increment(ec))
      tids.push_back(static_cast<pid_t>(std::strtol(it->path().filename().c_str(), nullptr, 10)));
    std::sort(tids.begin(), tids.end());
    return tids;
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool pinned_ = false;
};

// ------------------------------------------------------------ samples --

struct OpSample {
  double ms = 0;  ///< operation wall time
  bool traced = false;
  bool threw = false;
  bool failed = false;  ///< threw, or its output failed verification
  std::uint64_t checksum = 0;
};

struct Reference {
  std::uint64_t checksum;
  const char* source;  ///< where the expected bytes came from, for stderr
};

/// Marks as failed, and counts, the samples that threw or whose output
/// checksum misses any of `refs`, naming them on stderr.
std::uint64_t verify(const std::string& what, std::vector<OpSample>& samples,
                     const std::vector<Reference>& refs) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    OpSample& s = samples[i];
    const Reference* miss = nullptr;
    for (const Reference& r : refs)
      if (s.checksum != r.checksum) miss = &r;
    if (!s.threw && miss == nullptr) continue;
    s.failed = true;
    if (failed++ >= kMaxReportedFailures) continue;
    if (s.threw)
      std::fprintf(stderr, "perfbench: %s op %zu: failed (threw)\n", what.c_str(), i + 1);
    else
      std::fprintf(stderr,
                   "perfbench: %s op %zu: output checksum %016llx != %016llx (%s)\n",
                   what.c_str(), i + 1, static_cast<unsigned long long>(s.checksum),
                   static_cast<unsigned long long>(miss->checksum), miss->source);
  }
  return failed;
}

/// The reference checksum: the pinned one at the default seed and full
/// size, otherwise the first successful operation's.
Reference reference(const RunConfig& rc, std::uint64_t pinned,
                    const std::vector<OpSample>& samples) {
  if (rc.seed == kDefaultSeed && !rc.tiny) return {pinned, "pinned"};
  for (const OpSample& s : samples)
    if (!s.threw) return {s.checksum, "first op"};
  return {0, "no op succeeded"};
}

/// Operation times of the traced or untraced samples, a failed one counting
/// as slower than every latency limit.
std::vector<double> opTimes(const std::vector<OpSample>& samples, bool traced) {
  std::vector<double> v;
  for (const OpSample& s : samples)
    if (s.traced == traced) v.push_back(s.failed ? kFailedMs : s.ms);
  return v;
}

/// Per-layer values derived from the spans of traced operations: the median
/// (over operations) self time of each layer span, the operation span's own
/// self time as bench.unaccounted_ms, and the cost of tracing itself.
void spanMetrics(const SpanLog& log, const std::vector<OpSample>& samples,
                 std::map<std::string, double>& layer) {
  const std::vector<Span> spans = log.snapshot();
  const auto ops = selfTimes(spans, "bench.op");
  std::map<std::string, std::vector<double>> selfMs;
  for (const auto& op : ops)
    for (const auto& [name, ms] : op) selfMs[name].push_back(ms);
  for (const auto& [name, v] : selfMs) {
    std::vector<double> padded = v;  // an op without this span spent 0 in it
    padded.resize(ops.size(), 0.0);
    layer[name == "bench.op" ? "bench.unaccounted_ms" : name + "_ms"] = median(padded);
  }
  std::map<std::string, std::vector<double>> setupMs;
  for (const auto& setup : selfTimes(spans, "bench.setup"))
    for (const auto& [name, ms] : setup) setupMs[name].push_back(ms);
  for (const auto& [name, v] : setupMs)
    if (name != "bench.setup") layer[name + "_ms"] = median(v);

  const double tracedP50 = median(opTimes(samples, true));
  const double untracedP50 = median(opTimes(samples, false));
  if (untracedP50 > 0) layer["bench.trace_overhead_pct"] = (tracedP50 / untracedP50 - 1) * 100;
  layer["bench.op_samples"] = static_cast<double>(samples.size());
}

/// Times repeated set-ups, all before the timed run; setup_s is their
/// median, so one slow repetition (the first, cold one usually is) does not
/// decide it.
class SetupReps {
 public:
  explicit SetupReps(SpanLog* log) : log_(log) {}

  /// Times `setup` inside a bench.setup span, then records `inputSum()`, a
  /// checksum of the inputs it generated, outside the timing.
  template <typename Setup, typename Sum>
  void run(Setup setup, Sum inputSum) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log_, "bench.setup", 0);
      setup();
    }
    times_.push_back(msBetween(t0, Clock::now()) / 1000.0);
    sums_.push_back(inputSum());
  }

  double medianSeconds() const { return median(times_); }

  /// Whether every repetition generated the same inputs, as the same seed
  /// must; names a mismatch on stderr.
  bool inputsRepeat(const char* what) const {
    for (const std::uint64_t sum : sums_)
      if (sum != sums_.front()) {
        std::fprintf(stderr, "perfbench: %s: a repeated set-up generated different bytes\n",
                     what);
        return false;
      }
    return true;
  }

 private:
  SpanLog* log_;
  std::vector<double> times_;
  std::vector<std::uint64_t> sums_;
};

core::ReductionResult reduceBytes(const Bytes& trf, const core::ReductionConfig& config) {
  const Trace trace = deserializeFullTrace(trf);
  core::ReductionSession session(trace.names(), config);
  return session.reduce(segmentTrace(trace));
}

// -------------------------------------------------------------- batch --

struct BatchSpec {
  const char* name;
  const char* generator;  ///< registry workload, or bare scenario name
  bool scenario;
  eval::ScenarioParams params;
  double scale;
  double tinyScale;
  const char* config;
  bool merge;   ///< fold the reduction across ranks (TRM1 output)
  std::uint64_t pinned;  ///< output fnv1a64 at kDefaultSeed, full size
};

// The pinned checksums change only when what the program outputs changes;
// a change that moves one must say why the output changed.
const std::vector<BatchSpec>& batchSpecs() {
  static const std::vector<BatchSpec> kSpecs = {
      {"reduce_sweep3d", "sweep3d_32p", false, {}, 2.0, 0.05, "avgWave@0.2", false,
       0x5756e68060010bd4ull},
      {"match_random_walk", "random_walk_cost", true, {}, 100.0, 2.0, "Euclidean@0.1",
       false, 0xee690c402d151cdaull},
      {"merge_sparse_16k", "sparse_ranks", true, {{"ranks", 16384}}, 0.2, 0.02, "avgWave@0.2",
       true, 0x69e64732bfab46c0ull},
  };
  return kSpecs;
}

struct BatchCounts {
  std::size_t records = 0, segments = 0, stored = 0;
  core::MatchCounters match;
  core::MergeStats merge;
};

/// One operation: TRF1 bytes -> decode -> segment -> reduce [-> merge] ->
/// TRR1/TRM1 bytes, with a span around each call into a layer.
Bytes batchOp(const BatchSpec& spec, const core::ReductionConfig& config, const Bytes& input,
              SpanLog* log, std::uint64_t op, BatchCounts& counts) {
  ScopedSpan root(log, "bench.op", op);
  Trace trace;
  {
    ScopedSpan s(log, "trace.decode", op);
    trace = deserializeFullTrace(input);
  }
  SegmentedTrace segmented;
  {
    ScopedSpan s(log, "trace.segment", op);
    segmented = segmentTrace(trace);
  }
  core::ReductionSession session(trace.names(), config);
  core::ReductionResult result;
  {
    ScopedSpan s(log, "core.reduce", op);
    result = session.reduce(segmented);
  }
  counts.records = trace.totalRecords();
  counts.segments = segmented.totalSegments();
  counts.stored = result.stats.storedSegments;
  counts.match = result.counters;
  Bytes out;
  if (spec.merge) {
    core::MergeResult merged;
    {
      ScopedSpan s(log, "core.merge", op);
      merged = core::mergeAcrossRanks(result.reduced, core::MergeOptions{config, 64});
    }
    counts.merge = merged.stats;
    ScopedSpan s(log, "trace.encode", op);
    out = serializeMergedTrace(merged.merged);
  } else {
    ScopedSpan s(log, "trace.encode", op);
    out = serializeReducedTrace(result.reduced);
  }
  return out;
}

RunOutcome runBatch(const BatchSpec& spec, const RunConfig& rc, SpanLog* log) {
  eval::WorkloadOptions opts;
  opts.scale = rc.tiny ? spec.tinyScale : spec.scale;
  opts.seed = rc.seed;

  auto generate = [&] {
    std::optional<Trace> trace;
    {
      ScopedSpan s(log, "setup.generate", 0);
      trace = spec.scenario ? eval::runScenario(spec.generator, opts, spec.params)
                            : eval::runWorkload(spec.generator, opts);
    }
    ScopedSpan s(log, "setup.encode", 0);
    return serializeFullTrace(*trace);
  };
  CpuRotation cpus;
  SetupReps setups(log);
  Bytes input;
  for (int i = 0; i < kSetupReps; ++i) {
    Bytes().swap(input);
    cpus.step();
    setups.run([&] { input = generate(); }, [&] { return util::fnv1a64(input); });
  }

  const core::ReductionConfig config = core::ReductionConfig::fromName(spec.config);

  std::vector<OpSample> samples;
  BatchCounts counts;
  std::size_t outBytes = 0;
  const auto start = Clock::now();
  for (std::uint64_t op = 1;; ++op) {
    if (samples.size() >= kMinOps && msBetween(start, Clock::now()) >= rc.seconds * 1000) break;
    cpus.step();
    OpSample s;
    s.traced = log != nullptr && op % 2 == 1;  // traced runs alternate
    const auto t0 = Clock::now();
    try {
      const Bytes out = batchOp(spec, config, input, s.traced ? log : nullptr, op, counts);
      s.ms = msBetween(t0, Clock::now());
      s.checksum = util::fnv1a64(out);
      outBytes = out.size();
    } catch (const std::exception& e) {
      s.threw = true;
      std::fprintf(stderr, "perfbench: %s op %llu threw: %s\n", spec.name,
                   static_cast<unsigned long long>(op), e.what());
    }
    samples.push_back(s);
  }
  const double wallS = msBetween(start, Clock::now()) / 1000.0;

  RunOutcome out;
  const Reference ref = reference(rc, spec.pinned, samples);
  out.attempted = samples.size();
  out.failed = verify(spec.name, samples, {ref});
  out.correct = out.failed == 0 && setups.inputsRepeat(spec.name);
  std::fprintf(stderr, "perfbench: %s: %zu ops, output %016llx (%s)\n", spec.name,
               samples.size(), static_cast<unsigned long long>(ref.checksum), ref.source);

  std::map<std::string, double> m;
  if (log == nullptr) {
    const std::vector<double> ms = opTimes(samples, false);
    m["op_ms_p50"] = percentile(ms, 0.5);
    m["op_ms_p90"] = percentile(ms, 0.9);
    m["throughput_mib_s"] = static_cast<double>(out.attempted - out.failed) *
                            static_cast<double>(input.size()) / kMiB / wallS;
    m["reduced_pct"] = 100.0 * static_cast<double>(outBytes) / static_cast<double>(input.size());
    m["peak_rss_mib"] = peakRssMib();
    m["setup_s"] = setups.medianSeconds();
    out.metrics = collect(kEndToEnd, m);
    return out;
  }
  spanMetrics(*log, samples, m);
  m["trace.records"] = static_cast<double>(counts.records);
  m["trace.segments"] = static_cast<double>(counts.segments);
  m["core.stored"] = static_cast<double>(counts.stored);
  m["core.match.comparisons"] = static_cast<double>(counts.match.comparisons);
  m["core.match.exact_evals"] = static_cast<double>(counts.match.indexVisited);
  m["core.match.index_pruned"] = static_cast<double>(counts.match.indexPruned);
  m["core.match.index_decided"] =
      static_cast<double>(counts.match.indexPruned + counts.match.indexVisited);
  m["core.match.pivot_dist_evals"] = static_cast<double>(counts.match.pivotDistEvals);
  if (counts.segments != 0)
    m["core.match.comparisons_per_segment"] =
        static_cast<double>(counts.match.comparisons) / static_cast<double>(counts.segments);
  m["core.match.index_prune_rate"] = counts.match.indexPruneRate();
  if (spec.merge) {
    m["core.merge.input_reps"] = static_cast<double>(counts.merge.inputRepresentatives);
    m["core.merge.output_reps"] = static_cast<double>(counts.merge.mergedRepresentatives);
    m["core.merge.comparisons"] = static_cast<double>(counts.merge.counters.comparisons);
    m["core.merge.exact_evals"] = static_cast<double>(counts.merge.counters.indexVisited);
    m["core.merge.pivot_dist_evals"] =
        static_cast<double>(counts.merge.counters.pivotDistEvals);
  }
  out.metrics = collect(kPerLayer, m);
  return out;
}

// -------------------------------------------------------------- serve --

// serve_mixed: one closed-loop client streams a large sweep3d trace back to
// back while an open-loop producer sends small late_sender traces at a fixed
// rate, each timed from when it was due. The daemon has one reducer thread
// and an executor of width 1, so a small request queues behind the large
// one: the head-of-line blocking the daemon's dispatch is judged by.
constexpr const char* kServeConfig = "avgWave@0.2";
// A small request waits behind at most one large reduction (about 31-36 ms
// round trip), so its round trip stays under about 30 ms. Every 50 ms keeps
// the single producer from ever waiting on its own previous request, and a
// 30 s run times 600 of them. README.md has the measured rates.
constexpr double kSmallPerSecond = 20.0;
// Output fnv1a64 of the small and the large trace at kDefaultSeed.
constexpr std::uint64_t kPinnedSmall = 0x848b6a3c5992b96dull;
constexpr std::uint64_t kPinnedLarge = 0xa65b502af35a41baull;

/// An in-process daemon on a unix socket in the working directory.
class Daemon {
 public:
  Daemon()
      : path_("perfbench-" + std::to_string(::getpid()) + ".sock"),
        server_(options(path_)),
        addr_(server_.boundAddresses().at(0)),
        thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: daemon stopped: %s\n", e.what());
          }
        }) {}
  ~Daemon() {
    server_.stop();
    thread_.join();
    ::unlink(path_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& addr() const { return addr_; }
  serve::Server::Metrics metrics() const { return server_.metrics(); }

 private:
  static serve::ServerOptions options(const std::string& path) {
    serve::ServerOptions o;
    o.listenAddrs = {"unix:" + path};
    o.threads = 1;
    return o;
  }

  std::string path_;
  serve::Server server_;
  std::string addr_;
  std::thread thread_;
};

double statsValue(const serve::RemoteReduceResult& rr, const std::string& key) {
  for (const auto& [k, v] : rr.statsRows)
    if (k == key) return std::strtod(v.c_str(), nullptr);
  throw std::runtime_error("perfbench: reply has no '" + key + "' STATS row");
}

RunOutcome runServe(const RunConfig& rc, SpanLog* log) {
  eval::WorkloadOptions largeOpts;
  largeOpts.scale = rc.tiny ? 0.05 : 0.5;
  largeOpts.seed = rc.seed;
  eval::WorkloadOptions smallOpts;
  smallOpts.scale = rc.tiny ? 0.25 : 1.0;
  smallOpts.seed = rc.seed;

  struct Setup {
    Bytes large, small;
    std::optional<Daemon> daemon;
  };
  // Generating and encoding rotate over the CPUs like the batch set-ups;
  // the daemon's threads start unpinned. During the timed run every thread
  // steps one CPU on before each small request.
  CpuRotation cpus;
  auto setUp = [&](Setup& st) {
    cpus.step();
    std::optional<Trace> bigTrace, smallTrace;
    {
      ScopedSpan s(log, "setup.generate", 0);
      bigTrace = eval::runWorkload("sweep3d_32p", largeOpts);
      smallTrace = eval::runWorkload("late_sender", smallOpts);
    }
    {
      ScopedSpan s(log, "setup.encode", 0);
      st.large = serializeFullTrace(*bigTrace);
      st.small = serializeFullTrace(*smallTrace);
    }
    cpus.release();
    ScopedSpan s(log, "setup.daemon", 0);
    st.daemon.emplace();
    serve::reduceRemote(st.daemon->addr(), kServeConfig, st.small.data(), st.small.size(),
                        2000);
  };
  auto inputSum = [](const Setup& st) {
    return util::fnv1a64(st.large) ^ util::fnv1a64(st.small);
  };
  SetupReps setups(log);
  Setup live;
  for (int i = 0; i < kSetupReps; ++i) {
    live.daemon.reset();
    setups.run([&] { setUp(live); }, [&] { return inputSum(live); });
  }
  const Bytes& large = live.large;
  const Bytes& small = live.small;
  const std::string addr = live.daemon->addr();

  // Closed loop: the large client sends its next trace as soon as the
  // previous reply arrives.
  std::atomic<bool> stopLarge{false};
  std::vector<OpSample> largeSamples;
  const auto start = Clock::now();
  std::thread largeClient([&] {
    for (std::uint64_t op = 1; !stopLarge.load(); ++op) {
      OpSample s;
      s.traced = log != nullptr;
      SpanLog* l = s.traced ? log : nullptr;
      const auto t0 = Clock::now();
      try {
        ScopedSpan root(l, "bench.large_op", op);
        serve::RemoteReduceResult rr;
        {
          ScopedSpan c(l, "serve.reduce_remote", op);
          rr = serve::reduceRemote(addr, kServeConfig, large.data(), large.size());
        }
        s.ms = msBetween(t0, Clock::now());
        s.checksum = util::fnv1a64(rr.trrBytes);
      } catch (const std::exception& e) {
        s.threw = true;
        std::fprintf(stderr, "perfbench: serve_mixed large op %llu threw: %s\n",
                     static_cast<unsigned long long>(op), e.what());
      }
      largeSamples.push_back(s);
    }
  });

  // Open loop: small request i is due at start + i / rate whether or not
  // earlier ones have returned, and is timed from when it was due.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kSmallPerSecond));
  const std::size_t smallOps = std::max(
      kMinOps, static_cast<std::size_t>(std::ceil(rc.seconds * kSmallPerSecond)));
  std::vector<OpSample> smallSamples;
  std::vector<double> lateMs, waitMs, serverMs;
  std::size_t smallOut = 0;
  for (std::size_t i = 0; i < smallOps; ++i) {
    const auto due = start + interval * static_cast<long>(i);
    cpus.stepAllThreads();
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    lateMs.push_back(msBetween(due, sent));
    OpSample s;
    s.traced = log != nullptr && i % 2 == 0;
    SpanLog* l = s.traced ? log : nullptr;
    try {
      serve::RemoteReduceResult rr;
      {
        ScopedSpan root(l, "bench.op", i + 1);
        ScopedSpan c(l, "serve.reduce_remote", i + 1);
        rr = serve::reduceRemote(addr, kServeConfig, small.data(), small.size());
      }
      const auto done = Clock::now();
      s.ms = msBetween(due, done);
      s.checksum = util::fnv1a64(rr.trrBytes);
      smallOut = rr.trrBytes.size();
      const double reduceMs = statsValue(rr, "reduce wall ms");
      serverMs.push_back(reduceMs);
      waitMs.push_back(msBetween(sent, done) - reduceMs);
    } catch (const std::exception& e) {
      s.threw = true;
      std::fprintf(stderr, "perfbench: serve_mixed small op %zu threw: %s\n", i + 1,
                   e.what());
    }
    smallSamples.push_back(s);
  }
  stopLarge = true;
  largeClient.join();
  const double wallS = msBetween(start, Clock::now()) / 1000.0;
  // Read before the batch reductions below, whose own allocations would
  // otherwise set the high-water mark.
  const double peakRss = peakRssMib();
  const serve::Server::Metrics sm = live.daemon->metrics();
  live.daemon.reset();

  // Both traces are also reduced in process: the daemon must return the
  // batch path's bytes.
  const core::ReductionConfig config = core::ReductionConfig::fromName(kServeConfig);
  const std::uint64_t smallBatch =
      util::fnv1a64(serializeReducedTrace(reduceBytes(small, config).reduced));
  const std::uint64_t largeBatch =
      util::fnv1a64(serializeReducedTrace(reduceBytes(large, config).reduced));

  RunOutcome out;
  const std::uint64_t failedSmall =
      verify("serve_mixed small", smallSamples,
             {reference(rc, kPinnedSmall, smallSamples), {smallBatch, "batch reduction"}});
  const std::uint64_t failedLarge =
      verify("serve_mixed large", largeSamples,
             {reference(rc, kPinnedLarge, largeSamples), {largeBatch, "batch reduction"}});
  out.attempted = smallSamples.size() + largeSamples.size();
  out.failed = failedSmall + failedLarge;
  out.correct =
      out.failed == 0 && sm.protocolErrors == 0 && setups.inputsRepeat("serve_mixed");
  std::fprintf(stderr,
               "perfbench: serve_mixed: %zu small + %zu large ops, outputs %016llx / "
               "%016llx (batch)\n",
               smallSamples.size(), largeSamples.size(),
               static_cast<unsigned long long>(smallBatch),
               static_cast<unsigned long long>(largeBatch));

  std::map<std::string, double> m;
  if (log == nullptr) {
    const std::vector<double> ms = opTimes(smallSamples, false);
    m["op_ms_p50"] = percentile(ms, 0.5);
    m["op_ms_p90"] = percentile(ms, 0.9);
    const double mib = (static_cast<double>(smallSamples.size() - failedSmall) *
                            static_cast<double>(small.size()) +
                        static_cast<double>(largeSamples.size() - failedLarge) *
                            static_cast<double>(large.size())) /
                       kMiB;
    m["throughput_mib_s"] = mib / wallS;
    m["reduced_pct"] = 100.0 * static_cast<double>(smallOut) / static_cast<double>(small.size());
    m["peak_rss_mib"] = peakRss;
    m["setup_s"] = setups.medianSeconds();
    out.metrics = collect(kEndToEnd, m);
    return out;
  }
  spanMetrics(*log, smallSamples, m);
  m["serve.server_reduce_ms_p50"] = median(serverMs);
  m["serve.wait_ms_p50"] = percentile(waitMs, 0.5);
  m["serve.wait_ms_p90"] = percentile(waitMs, 0.9);
  m["serve.large_rtt_ms_p50"] = median(opTimes(largeSamples, true));
  m["serve.gen_late_ms_p90"] = percentile(lateMs, 0.9);
  m["serve.traces_served"] = static_cast<double>(sm.tracesServed);
  m["serve.protocol_errors"] = static_cast<double>(sm.protocolErrors);
  m["serve.abrupt_disconnects"] = static_cast<double>(sm.abruptDisconnects);
  m["serve.peak_conn_buffered_kib"] = static_cast<double>(sm.peakConnBufferedBytes) / 1024.0;
  out.metrics = collect(kPerLayer, m);
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> v;
    for (const BatchSpec& s : batchSpecs()) v.push_back(s.name);
    v.push_back("serve_mixed");
    return v;
  }();
  return kNames;
}

RunOutcome runWorkload(const RunConfig& config, SpanLog* log) {
  if (config.workload == "serve_mixed") return runServe(config, log);
  for (const BatchSpec& spec : batchSpecs())
    if (config.workload == spec.name) return runBatch(spec, config, log);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
