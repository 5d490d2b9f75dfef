// Trace-sampling reduction policies — the paper's stated future work
// ("Future directions for this work include investigating additional
// difference methods, such as trace sampling").
//
// Both policies plug into the same reducer as the nine studied methods, so
// every evaluation criterion (file size, degree of matching, approximation
// distance, trend retention) applies unchanged:
//
//   * PeriodicSamplingPolicy(k): keep every k-th execution of each segment
//     signature (Carrington-style systematic sampling). Executions between
//     samples are recorded against the most recently kept representative.
//   * RandomSamplingPolicy(p, seed): keep each execution independently with
//     probability p (Vetter-style statistical sampling), deterministic via
//     a counter-based stream per signature. The first execution of every
//     signature is always kept so reconstruction is total.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/similarity.hpp"

namespace tracered::core {

/// Keep every k-th execution per signature.
class PeriodicSamplingPolicy final : public SimilarityPolicy {
 public:
  explicit PeriodicSamplingPolicy(int k) : k_(k < 1 ? 1 : k) {}
  std::string name() const override { return "sample_every_k"; }
  void beginRank() override { seen_.clear(); }
  std::optional<SegmentId> tryMatch(const Segment& candidate, std::uint64_t signature,
                                    SegmentStore& store) override;

  int k() const { return k_; }

 private:
  int k_;
  std::unordered_map<std::uint64_t, std::uint64_t> seen_;  ///< per signature
};

/// Keep each execution with probability p.
class RandomSamplingPolicy final : public SimilarityPolicy {
 public:
  RandomSamplingPolicy(double p, std::uint64_t seed)
      : p_(p < 0 ? 0 : (p > 1 ? 1 : p)), seed_(seed) {}
  std::string name() const override { return "sample_prob"; }
  void beginRank() override {
    seen_.clear();
    ++rankCounter_;
  }
  std::optional<SegmentId> tryMatch(const Segment& candidate, std::uint64_t signature,
                                    SegmentStore& store) override;

  double probability() const { return p_; }

 private:
  double p_;
  std::uint64_t seed_;
  std::uint64_t rankCounter_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> seen_;
};

}  // namespace tracered::core
