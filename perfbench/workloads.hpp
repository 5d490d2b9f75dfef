// The benchmark's workloads and the metrics one run of them reports.
//
// Each workload puts most of its work in one layer (README.md has the
// layer -> metric -> workload table):
//   reduce_sweep3d     trace decode/segment, the paper's flagship input
//   match_random_walk  core matching: drifting segments, deep bucket scans
//   merge_sparse_16k   core cross-rank merge over 16384 tiny ranks
//   serve_mixed        the daemon: small requests behind a large stream
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool traced = false;  ///< per-layer metrics instead of end-to-end ones
  bool tiny = false;    ///< smoke-test input sizes (checksums not pinned)
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// End-to-end metrics in an untraced run, per-layer metrics in a traced
  /// one; always the full list, in a fixed order.
  std::vector<Metric> metrics;
};

/// The seed whose outputs are pinned by checksum in workloads.cpp.
inline constexpr std::uint64_t kDefaultSeed = 42;

const std::vector<std::string>& workloadNames();

/// Sets up and runs one workload. `log` is non-null exactly in traced mode.
/// Throws std::invalid_argument on an unknown workload name.
RunOutcome runWorkload(const RunConfig& config, SpanLog* log);

}  // namespace perfbench
