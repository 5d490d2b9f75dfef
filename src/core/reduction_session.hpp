// ReductionSession: the one facade over offline and streaming reduction.
//
// The paper's pipeline can be driven two ways — hand the reducer a whole
// segmented trace after the fact (offline), or stream records through it at
// collection time (online). A session serves both: construct from a
// ReductionConfig, then EITHER feed() raw records (online) OR reduce() a
// SegmentedTrace (offline), and take the result.
//
//   ReductionSession session(trace.names(), {Method::kAvgWave, 0.2});
//   session.onProgress([](std::size_t done, std::size_t total) { ... });
//   auto result = session.reduce(segmentTrace(trace));        // offline
//
//   ReductionSession live(trace.names(), config);
//   live.feed(rank, record);  // ... at collection time ...
//   auto result2 = live.finish();                             // online
//
// Streaming keeps one lane per fed rank: the rank's policy, a RankSegmenter
// (the same state machine segmentTrace loops over) and a RankReductionEngine
// (the same matching loop reduceTrace runs). Each record is pushed through
// the segmenter and every segment it closes goes straight to the engine, so
// only the representatives and execution tables stay in memory, and the
// result is bit-identical to segmenting the same records and calling
// reduce(). Ranks are indexed sparsely: feeding ranks {3, 1024} creates two
// lanes, and the result lists them in rank-id order. A rank with no records
// cannot be discovered from the stream; the offline reducer emits an empty
// entry for it, so a caller that must mirror such a trace pre-registers its
// rank set with ensureRank().
//
// A session is single-shot: reduce() or finish() finalizes it, and further
// feed()/reduce() calls throw. The two modes are exclusive — feed() and
// ensureRank() commit the session to streaming, so reduce() then throws
// rather than silently dropping the fed records or pre-registered ranks.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/rank_reduction_engine.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"
#include "core/similarity.hpp"
#include "trace/segment.hpp"
#include "trace/segmenter.hpp"
#include "trace/string_table.hpp"
#include "trace/trace.hpp"

namespace tracered::core {

class ReductionSession {
 public:
  /// `names` is the trace-wide string table the fed records' NameIds refer
  /// to; it must outlive the session. `config` fixes method, threshold, and
  /// execution policy for the session's lifetime.
  ReductionSession(const StringTable& names, const ReductionConfig& config);

  const ReductionConfig& config() const { return config_; }

  /// Registers an observer called after each rank completes, as
  /// (ranksCompleted, ranksTotal) — the hook long sweeps use for progress
  /// bars. Applies to whichever of reduce()/finish() runs later.
  void onProgress(ProgressFn progress) { progress_ = std::move(progress); }

  // --- optional cross-rank merge stage ---

  /// Arms the merge stage: when the session finalizes (reduce() or
  /// finish()), the per-rank reduction is additionally folded into one
  /// application-wide merged trace via the hierarchical CrossRankMerger,
  /// available from mergeResult() afterwards. Works identically on the
  /// offline and streaming paths (the reduction they produce is
  /// bit-identical, so the merge is too). Throws std::logic_error after the
  /// session finished.
  void setMergeOptions(const MergeOptions& options);

  /// The merge stage's output; engaged once the session has finalized with
  /// merge options set, nullopt otherwise.
  const std::optional<MergeResult>& mergeResult() const { return mergeResult_; }

  /// Moves the merge stage's output out of a finalized session (merged
  /// traces can be large; front ends that write them to disk should not pay
  /// for a copy).
  std::optional<MergeResult> takeMergeResult() { return std::move(mergeResult_); }

  // --- online (streaming) use ---

  /// Pre-registers `rank` so it appears in the result even if it never
  /// feeds a record (mirrors offline reduction of a trace with idle ranks).
  /// Like feed(), commits the session to streaming mode.
  void ensureRank(Rank rank);

  /// Streams one raw record for `rank`, creating the rank's lane on first
  /// use. Throws std::logic_error after the session is finished,
  /// std::invalid_argument on a negative rank, and std::runtime_error on a
  /// malformed stream (the segmenter's diagnostic).
  void feed(Rank rank, const RawRecord& record);

  /// Records fed so far — the live counter long-running feeders (the
  /// `tracered reduce --streaming` progress line) report between the
  /// per-rank progress callbacks, which only start firing at finish().
  std::size_t recordsFed() const { return recordsFed_; }

  /// Approximate bytes the streaming lanes retain (stored representatives +
  /// execution tables, summed over ranks) — the number an online tool would
  /// watch to decide when to spill. Meaningful only until finish().
  std::size_t retainedBytes() const;

  /// Completes streaming and returns the reduction of everything fed —
  /// bit-identical to segmenting the same records and calling reduce().
  /// Checks every lane's end of stream first, in rank order, and throws the
  /// first rank's std::runtime_error if an event or segment is still open.
  /// The lanes then finish sharded through the config's executor. On a
  /// session that never fed, returns an empty result. Finalizes the session.
  ReductionResult finish();

  // --- offline (whole-trace) use ---

  /// Reduces an already-segmented trace in one shot. Finalizes the session.
  /// Throws std::logic_error on a streaming session (feed() or ensureRank()
  /// was called) or if the session already finished.
  ReductionResult reduce(const SegmentedTrace& segmented);

 private:
  /// One streamed rank: its own policy (policies are stateful per rank), the
  /// record→segment state machine, the open segment's events and the
  /// matching loop. The pool is cleared after each closed segment is
  /// consumed, so its capacity settles at the rank's longest segment and a
  /// steady stream allocates nothing.
  struct Lane {
    Lane(Rank rank, const StringTable& names, const ReductionConfig& config);
    std::unique_ptr<SimilarityPolicy> policy;
    RankSegmenter segmenter;
    std::vector<EventInterval> pool;
    RankReductionEngine engine;
  };

  /// Finds or creates `rank`'s lane, committing the session to streaming.
  Lane& lane(Rank rank);
  ReductionResult finalize(ReductionResult result);

  const StringTable& names_;
  ReductionConfig config_;
  ProgressFn progress_;
  std::map<Rank, Lane> lanes_;  ///< Keyed by rank id; node-stable, ordered.
  // Feeds are rank-major in practice, so the last fed lane is cached and the
  // map is walked only on a rank change.
  Lane* lastLane_ = nullptr;
  std::optional<MergeOptions> mergeOptions_;
  std::optional<MergeResult> mergeResult_;
  std::size_t recordsFed_ = 0;
  bool finished_ = false;
};

}  // namespace tracered::core
