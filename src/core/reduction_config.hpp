// The one value type describing a reduction run: which similarity method,
// at what threshold, and on which executor. Every driver (offline
// reduceTrace, the streaming OnlineReducer, eval::evaluateMethod,
// ReductionSession) takes a ReductionConfig instead of re-plumbing its own
// (Method, double, options) triple, and sweeps can serialize configs through
// fromName()/toString() ("avgWave@0.2" style) for CLIs and logs.
#pragma once

#include <memory>
#include <string>

#include "core/methods.hpp"
#include "core/similarity.hpp"

namespace tracered::util {
class Executor;
}  // namespace tracered::util

namespace tracered::core {

/// Method + threshold + executor for one reduction. Aggregate:
/// `{Method::kAvgWave, 0.2}` is a serial config; designated initializers
/// select an executor (`{.method = m, .threshold = t, .executor = &pool}`).
///
/// Only method and threshold change the output. `executor` (non-owning; the
/// caller keeps it alive, typically one PooledExecutor per sweep so worker
/// spawn/join is amortized across calls) shards ranks across workers; null
/// runs every rank inline on the calling thread. Every driver resolves it the
/// same way, and the result is bit-identical either way.
struct ReductionConfig {
  Method method = Method::kRelDiff;
  double threshold = 0.8;  // defaultThreshold(kRelDiff)
  util::Executor* executor = nullptr;

  /// Config at the paper's default ("best") threshold for `m`.
  static ReductionConfig defaults(Method m);

  /// Parses "method" or "method@threshold" ("avgWave", "absDiff@1000",
  /// case-insensitive method names). A bare method name gets its paper
  /// default threshold; an explicit threshold must be a finite,
  /// non-negative number. Throws std::invalid_argument naming the valid
  /// methods on an unknown name, or describing the bad threshold.
  static ReductionConfig fromName(const std::string& spec);

  /// Round-trips through fromName() losslessly (shortest decimal form that
  /// parses back to exactly this threshold): "method@threshold", or just
  /// "method" for iter_avg (which has no threshold).
  std::string toString() const;

  /// Instantiates the similarity policy this config describes.
  std::unique_ptr<SimilarityPolicy> makePolicy() const;

  /// A copy of this config running through `exec` (sugar for sweeps that
  /// share one executor across many configs).
  ReductionConfig withExecutor(util::Executor& exec) const;
};

}  // namespace tracered::core
