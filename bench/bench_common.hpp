// Shared helpers for the paper-artifact bench harnesses.
//
// Every harness accepts:
//   --scale <f>    iteration-count multiplier (default 1.0 = paper-size runs)
//   --seed <n>     workload seed (default 42)
//   --csv          additionally emit CSV blocks for plotting
//   --threads <n>  reduction worker threads (0 = hardware concurrency,
//                  1 = serial; never changes any number, only the wall clock)
// and prints aligned tables whose rows mirror the corresponding paper
// figure/table. Harnesses shard every reduction through one shared
// PooledExecutor (see executor()), so a whole 9-method x 6-threshold sweep
// spawns workers once instead of per reduction.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/evaluation.hpp"
#include "eval/workloads.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace tracered::bench {

struct BenchOptions {
  eval::WorkloadOptions workload;
  bool csv = false;
  int threads = 0;  ///< reduction executor width; 0 = hardware concurrency

  /// Parses the common harness flags. Harnesses with their own flags list
  /// them in `extraKnown` and read their values through args() — argv is
  /// tokenized exactly once, with one set of boolean-flag rules; anything
  /// unknown is rejected with a did-you-mean suggestion (exit 2) instead of
  /// being silently ignored.
  static BenchOptions parse(int argc, char** argv,
                            const std::vector<std::string>& extraKnown = {}) {
    CliArgs args(argc, argv, /*booleanFlags=*/{"csv"});
    std::vector<std::string> known = {"scale", "seed", "csv", "threads"};
    known.insert(known.end(), extraKnown.begin(), extraKnown.end());
    rejectUnknownFlags(args, known);
    BenchOptions opts;
    try {
      opts.workload.scale = args.getDouble("scale", 1.0);
      opts.workload.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
      opts.csv = args.getBool("csv", false);
      opts.threads = threadsFlag(args, 0);
      // A zero/negative/NaN scale must be an exit-2 usage error here, not an
      // uncaught invalid_argument from runWorkload deep inside the harness.
      eval::validateWorkloadOptions(opts.workload);
    } catch (const std::invalid_argument& e) {  // UsageError included
      usageExit(args, e.what());
    }
    opts.args_.emplace(std::move(args));
    return opts;
  }

  /// The validated command line parse() built, for harness-specific flags.
  const CliArgs& args() const { return *args_; }

  /// The harness-wide executor: one pool, lazily started, reused by every
  /// reduction of the run. Valid until the options object dies (harnesses
  /// keep it alive in main()).
  util::PooledExecutor& executor() const {
    if (!executor_) executor_ = std::make_unique<util::PooledExecutor>(threads);
    return *executor_;
  }

 private:
  std::optional<CliArgs> args_;
  mutable std::unique_ptr<util::PooledExecutor> executor_;
};

/// Per-run cache so a harness evaluating many methods on one workload only
/// generates and prepares each trace once.
class TraceCache {
 public:
  explicit TraceCache(const eval::WorkloadOptions& opts) : opts_(opts) {}

  const eval::PreparedTrace& get(const std::string& name) {
    auto it = cache_.find(name);
    if (it == cache_.end()) {
      std::fprintf(stderr, "[gen] %s ...\n", name.c_str());
      it = cache_.emplace(name, eval::prepare(eval::runWorkload(name, opts_))).first;
    }
    return it->second;
  }

 private:
  eval::WorkloadOptions opts_;
  std::map<std::string, eval::PreparedTrace> cache_;
};

inline void printTable(const TextTable& t, bool csv, const std::string& title) {
  std::printf("== %s ==\n%s\n", title.c_str(), t.str().c_str());
  if (csv) std::printf("-- csv: %s --\n%s\n", title.c_str(), t.csv().c_str());
}

}  // namespace tracered::bench
