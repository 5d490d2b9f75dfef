#include "core/sampling.hpp"

#include "util/rng.hpp"

namespace tracered::core {

namespace {

/// Latest stored representative compatible with `candidate`, if any.
std::optional<SegmentId> lastCompatible(const Segment& candidate, std::uint64_t signature,
                                        const SegmentStore& store) {
  std::optional<SegmentId> last;
  for (SegmentId id : store.bucket(signature)) {
    if (candidate.compatible(store.segment(id))) last = id;
  }
  return last;
}

}  // namespace

std::optional<SegmentId> PeriodicSamplingPolicy::tryMatch(const Segment& candidate,
                                                          std::uint64_t signature,
                                                          SegmentStore& store) {
  const std::uint64_t index = seen_[signature]++;
  if (index % static_cast<std::uint64_t>(k_) == 0) return std::nullopt;  // sample it
  return lastCompatible(candidate, signature, store);
}

std::optional<SegmentId> RandomSamplingPolicy::tryMatch(const Segment& candidate,
                                                        std::uint64_t signature,
                                                        SegmentStore& store) {
  const std::uint64_t index = seen_[signature]++;
  if (index == 0) return std::nullopt;  // always keep the first
  // Counter-based deterministic draw: independent of evaluation order.
  SplitMix64 rng(seedFor("sample", seed_ ^ signature,
                         static_cast<std::int64_t>(index + (rankCounter_ << 32))));
  if (rng.nextDouble() < p_) return std::nullopt;
  return lastCompatible(candidate, signature, store);
}

}  // namespace tracered::core
