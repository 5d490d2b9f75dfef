#include "core/reconstruct.hpp"

#include <stdexcept>
#include <string>
#include <unordered_set>

namespace tracered::core {

ReductionStats statsFromReduced(const ReducedTrace& reduced) {
  ReductionStats stats;
  for (const RankReduced& rr : reduced.ranks) {
    // Every stored segment has at least its own exec, so fewer execs than
    // stored segments is a malformed trace — reject instead of letting the
    // subtractions below wrap.
    if (rr.execs.size() < rr.stored.size())
      throw std::runtime_error("statsFromReduced: rank " + std::to_string(rr.rank) + " has " +
                               std::to_string(rr.stored.size()) + " stored segments but only " +
                               std::to_string(rr.execs.size()) + " segment execs");
    stats.totalSegments += rr.execs.size();
    stats.storedSegments += rr.stored.size();
    stats.matches += rr.execs.size() - rr.stored.size();
    std::unordered_set<std::uint64_t> groups;
    for (const Segment& s : rr.stored) groups.insert(s.view().signature());
    stats.possibleMatches += rr.execs.size() - groups.size();
  }
  return stats;
}

void stampExecs(RankSegments& out, std::span<const Segment> representatives,
                std::span<const SegmentExec> execs, std::vector<std::size_t>& offsets) {
  constexpr std::size_t kUnstamped = static_cast<std::size_t>(-1);
  offsets.assign(representatives.size(), kUnstamped);
  out.reserve(execs.size(), 0);
  for (const SegmentExec& exec : execs) {
    if (exec.id >= representatives.size())
      throw std::out_of_range("reconstruct: rank " + std::to_string(out.rank) +
                              ": exec references representative " +
                              std::to_string(exec.id) + " of " +
                              std::to_string(representatives.size()));
    const Segment& rep = representatives[exec.id];  // relative times
    std::size_t& offset = offsets[exec.id];
    if (offset == kUnstamped) offset = out.appendEvents(rep.events);
    out.addShared({rep.context, exec.start, rep.end, offset, rep.events.size()});
  }
}

SegmentedTrace reconstruct(const ReducedTrace& reduced) {
  SegmentedTrace out;
  out.ranks.resize(reduced.ranks.size());
  std::vector<std::size_t> offsets;
  for (std::size_t r = 0; r < reduced.ranks.size(); ++r) {
    const RankReduced& rr = reduced.ranks[r];
    out.ranks[r].rank = rr.rank;
    stampExecs(out.ranks[r], rr.stored, rr.execs, offsets);
  }
  return out;
}

}  // namespace tracered::core
