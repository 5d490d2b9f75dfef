#include "core/match_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tracered::core {

namespace {

/// Widening applied to window edges so rounding in the edge computation can
/// never exclude an admissible key (mirrors provablyExceeds' margin).
double windowMargin(double scale) { return 1e-9 * (std::fabs(scale) + 1.0); }

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

KeyWindow admissibleNormWindow(double norm, double maxAbs, double threshold) {
  // Accepted pair => |norm_c - norm_r| <= threshold * max(maxAbs_c, maxAbs_r)
  // (reverse triangle inequality against the Eq. 1 bound). Two cases:
  //   maxAbs_r <= maxAbs_c: |norm_c - norm_r| <= threshold * maxAbs_c.
  //   maxAbs_r >  maxAbs_c: maxAbs_r <= norm_r closes the bound on norm_r:
  //     norm_r (1 - threshold) <= norm_c <= norm_r (1 + threshold), i.e.
  //     norm_c / (1 + threshold) <= norm_r, and norm_r <= norm_c /
  //     (1 - threshold) when threshold < 1 (no upper bound otherwise).
  // The window is the hull of both cases, widened by the rounding margin.
  const double spread = threshold * maxAbs;
  const double margin = windowMargin(norm + spread);
  KeyWindow w;
  w.lo = std::min(norm - spread, norm / (1.0 + threshold)) - margin;
  w.hi = threshold < 1.0
             ? std::max(norm + spread, norm / (1.0 - threshold)) + margin
             : kInf;
  return w;
}

KeyWindow admissibleEndWindowAbs(double end, double threshold) {
  const double margin = windowMargin(end + threshold);
  return {end - threshold - margin, end + threshold + margin};
}

KeyWindow admissibleEndWindowRel(double end, double threshold) {
  // relDiff(end_c, end_r) = |end_c - end_r| / max(end_c, end_r) for the
  // non-negative end measurements; it never exceeds 1, so a threshold >= 1
  // admits every end. Below 1:
  //   end_r <= end_c: end_c - end_r <= threshold * end_c.
  //   end_r >  end_c: end_r - end_c <= threshold * end_r.
  if (threshold >= 1.0) return {-kInf, kInf};
  const double margin = windowMargin(end);
  return {end * (1.0 - threshold) - margin, end / (1.0 - threshold) + margin};
}

void MetricBucketIndex::insertBlockNorm(double norm) {
  // Slide the block's larger norms up one place (ties keep store order);
  // each slid mask gains the new entry's bit.
  const std::size_t pos = blockSorted_.size();
  const std::size_t base = pos - pos % kBlock;
  const std::uint64_t bit = std::uint64_t{1} << (pos - base);
  blockSorted_.emplace_back();
  std::size_t k = pos;
  for (; k > base && blockSorted_[k - 1].norm > norm; --k)
    blockSorted_[k] = {blockSorted_[k - 1].norm, blockSorted_[k - 1].atOrBelow | bit};
  blockSorted_[k] = {norm, (k > base ? blockSorted_[k - 1].atOrBelow : 0) | bit};
}

bool EndIntervalIndex::anyInWindow(const KeyWindow& window) const {
  const auto lo =
      std::lower_bound(sortedKeys_.begin(), sortedKeys_.end(), window.lo);
  return lo != sortedKeys_.end() && *lo <= window.hi;
}

}  // namespace tracered::core
