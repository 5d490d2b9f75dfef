// The Sec. 3.1 matching loop for ONE rank, shared by the offline reducer
// (`reduceTrace`) and ReductionSession's streaming lanes.
//
// The engine owns the rank's representative store, drives the similarity
// policy's hooks (beginRank / tryMatch / onStored / finishRank), and keeps
// the match accounting. Feeding it the rank's rebased segments one at a time
// produces exactly the same `RankReduced` whether the segments come from an
// already-segmented trace or from a live record stream — this is the single
// place the matching algorithm lives.
//
// Reduction is intra-process (Sec. 3): one engine per rank, no shared state
// between engines, which is what makes rank-sharded parallel reduction
// trivially safe.
#pragma once

#include <cstddef>

#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"

namespace tracered::core {

/// Match-accounting for the degree-of-matching criterion (Sec. 4.3.2).
/// A per-rank value; whole-trace stats are the `merge` of the rank stats.
struct ReductionStats {
  std::size_t totalSegments = 0;
  std::size_t storedSegments = 0;
  std::size_t matches = 0;          ///< Segments recorded against an existing id.
  std::size_t possibleMatches = 0;  ///< totalSegments - #distinct signatures.

  /// Associative, commutative accumulation of another rank's (or partial)
  /// stats. merge(a, merge(b, c)) == merge(merge(a, b), c).
  void merge(const ReductionStats& other) {
    totalSegments += other.totalSegments;
    storedSegments += other.storedSegments;
    matches += other.matches;
    possibleMatches += other.possibleMatches;
  }

  /// matches / possibleMatches; 1.0 when nothing could have matched.
  double degreeOfMatching() const {
    return possibleMatches == 0
               ? 1.0
               : static_cast<double>(matches) / static_cast<double>(possibleMatches);
  }

  friend bool operator==(const ReductionStats&, const ReductionStats&) = default;
};

/// The per-rank reduction state machine: consume rebased segments in
/// execution order, then finish() once to obtain the rank's reduction.
class RankReductionEngine {
 public:
  /// Binds the engine to `policy` (owned by the caller) and applies the
  /// policy's beginRank() reset. One engine instance serves one rank.
  RankReductionEngine(Rank rank, SimilarityPolicy& policy);

  /// Matches `seg` (rebased: events relative to absStart) against the store,
  /// or stores a copy as a new representative; records the exec either way.
  /// The view need not outlive the call.
  void consume(const SegmentView& seg);

  /// Completes the rank: finalizes the accounting, runs the policy's
  /// finishRank hook (iter_avg writes back averages here) and moves the
  /// reduction out. The engine cannot consume afterwards; stats() remains
  /// valid and includes the finish-time totals.
  RankReduced finish();

  /// Matching statistics so far (storedSegments / possibleMatches are
  /// finalized by finish()).
  const ReductionStats& stats() const { return stats_; }

  /// Matching-loop instrumentation attributable to this rank: the policy's
  /// cumulative counters minus their value when this engine bound it. Valid
  /// while the policy is not interleaved with another live engine — the
  /// serial driver reuses one policy across ranks strictly one engine at a
  /// time, which is exactly this contract.
  MatchCounters counters() const;

  /// Approximate bytes of retained data (the stored representatives' events
  /// + the exec table) — the number an online tool watches to decide when to
  /// spill. Meaningful only until finish(), which moves the retained data
  /// into the result.
  std::size_t retainedBytes() const;

 private:
  SimilarityPolicy& policy_;
  SegmentStore store_;
  RankReduced result_;
  ReductionStats stats_;
  MatchCounters counterBase_;  ///< Policy counters when this engine bound it.
  bool finished_ = false;
};

}  // namespace tracered::core
