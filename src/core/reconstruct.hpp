// Recreation of an approximated full trace from a reduced trace
// (Sec. 4.3.3): every segment execution is replayed by stamping its
// representative's relative event times onto the recorded absolute start
// time. The result is structurally identical to the original SegmentedTrace
// (same segment/event counts), so timestamps can be compared pairwise.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/rank_reduction_engine.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"

namespace tracered::core {

/// Expands `reduced` into per-rank segments with absolute start times. Each
/// rank's pool holds every representative its execs use once, and each
/// exec's header points at its representative's range, so the result grows
/// with representatives plus execs, not with the expanded events. Throws
/// std::out_of_range if an exec references an unknown representative.
SegmentedTrace reconstruct(const ReducedTrace& reduced);

/// Appends one segment per exec of `execs` to `out`, stamping
/// representatives[exec.id] at exec.start; a representative's events enter
/// out's pool at its first exec only. `offsets` is scratch, reused across
/// calls. Throws std::out_of_range on an id outside `representatives`.
void stampExecs(RankSegments& out, std::span<const Segment> representatives,
                std::span<const SegmentExec> execs, std::vector<std::size_t>& offsets);

/// Re-derives the match accounting (Sec. 4.3.2) from a reduced trace alone:
/// totals come from the exec table, matches are execs minus stored, and the
/// signature-group count comes from the stored representatives — the first
/// segment of every signature group is always stored, so the stored set
/// covers exactly the groups. Equal to the ReductionStats reported by the
/// reduction that produced `reduced` (tested); the CLI's `eval` command uses
/// this when only the file is left.
ReductionStats statsFromReduced(const ReducedTrace& reduced);

}  // namespace tracered::core
