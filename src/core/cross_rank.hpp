// Cross-rank representative merging (extension).
//
// The paper scopes itself to *intra-process* reduction and notes that
// per-task traces are merged into one application trace afterwards. In SPMD
// programs the ranks' representatives are often near-identical, so a second,
// inter-process pass can merge them: representatives from different ranks
// that are compatible and ≈-similar under the same policy collapse into one
// shared entry, and each rank's execution table is re-pointed at the shared
// store (cf. Noeth & Mueller's cross-node compression).
//
// This preserves reconstruction semantics exactly like the intra-process
// pass: every exec still expands to a compatible representative; only the
// measurements may now come from a peer rank's representative.
//
// Two drivers share those semantics:
//
//   * The policy-level serial pass (`mergeAcrossRanks(reduced, policy)`) —
//     the reference: one synthetic "rank" holding the shared store, every
//     representative tested in (rank order, store order), first match wins.
//   * The config-driven hierarchical driver (`CrossRankMerger` and the
//     MergeOptions overload): ranks are partitioned into shards and each
//     shard climbs the tree in two steps — a PARALLEL probe of every
//     candidate against the frozen store prefix committed by earlier shards,
//     then a SERIAL commit walk in candidate order that resolves the
//     candidates the probe could not (first match inside the shard, or a new
//     store entry).
//
// The merger keeps ONE match index over the shared store (the commit
// policy's feature cache and per-bucket indexes) for the whole merge. At
// each shard boundary the buckets the shard's candidates hit are synced
// serially (DistancePolicy::sync — deterministic, counted once), the probe
// workers then query that index read-only (DistancePolicy::query, each unit
// counting into its own counters and computing features into its own
// scratch), and the commit walk extends it as entries are added. Nothing is
// rebuilt per rank or per shard, and every shard runs through the config's
// one executor, so a pooled merge starts one pool. Each candidate is hashed
// once per shard flush and its signature reused by every step.
//
// Why the two-step shape instead of merging subtrees independently and
// combining: similarity is not transitive, so a candidate can match a
// *local* shard winner while the serial pass would have matched it against
// an earlier rank's representative — independent subtree merges are NOT
// associative under first-match semantics and cannot be bit-identical. The
// frozen-prefix probe is: frozen entries precede every in-shard addition in
// store order, so the earliest frozen match IS the serial first match, and a
// probe miss means the serial match (if any) is an in-shard addition, which
// the serial commit walk finds exactly where the reference pass would. The
// merged output is therefore bit-identical to the serial reference for
// every shard size and executor, by construction (and by
// cross_rank_merge_test's registry-wide differential sweep).
//
// The iteration-based methods (iter_k, iter_avg) are order-sensitive — their
// match target depends on commit-time state — so they skip the probe and run
// entirely through the serial commit leg (their per-candidate work is O(1)ish
// anyway; the parallel win targets the distance methods' vector walks).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/reduction_config.hpp"
#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/trace_io.hpp"

namespace tracered::core {

// The merged-trace data model lives in trace/ (trace/reduced_trace.hpp) with
// its "TRM1" codec; re-exported here for the core-side API and existing
// callers.
using tracered::MergedReducedTrace;
using tracered::mergedTraceSize;

/// Statistics of a merge.
struct MergeStats {
  std::size_t inputRepresentatives = 0;
  std::size_t mergedRepresentatives = 0;
  MatchCounters counters;  ///< Shared-store scans / index decisions —
                           ///< the same policy hooks (and the same feature
                           ///< cache) drive the inter-rank merge. For the
                           ///< hierarchical driver: probe counters (one slot
                           ///< per rank, summed at the shard join) +
                           ///< commit-policy counters, which include the
                           ///< serial index upkeep — deterministic for a
                           ///< fixed MergeOptions across executors.

  double mergeRatio() const {
    return inputRepresentatives == 0
               ? 1.0
               : static_cast<double>(mergedRepresentatives) /
                     static_cast<double>(inputRepresentatives);
  }
};

/// How the hierarchical driver runs: which policy decides ≈ (config.method /
/// threshold), how it executes (config.executor, or inline when null,
/// exactly like the intra-process drivers), and how many ranks form one tree
/// shard. Neither shardRanks nor the executor ever changes the merged bytes
/// — only the wall clock and the peak working set, which is O(shard + shared
/// store) when ranks are fed incrementally.
struct MergeOptions {
  ReductionConfig config;
  std::size_t shardRanks = 64;  ///< Ranks buffered per tree shard (>= 1).
};

/// Result of a config-driven merge.
struct MergeResult {
  MergedReducedTrace merged;
  MergeStats stats;
};

/// Merges the per-rank stores of `reduced` using `policy` for the ≈ test.
/// The policy sees one synthetic "rank" containing all representatives in
/// rank order (rank 0's first), so earlier ranks' representatives win — the
/// same first-match rule as the intra-process algorithm. This is the serial
/// reference the hierarchical driver is tested against.
MergedReducedTrace mergeAcrossRanks(const ReducedTrace& reduced,
                                    SimilarityPolicy& policy, MergeStats* stats = nullptr);

/// Config-driven hierarchical merge of a whole reduced trace — bit-identical
/// to the serial reference under `options.config`'s method/threshold for any
/// shard size or executor.
MergeResult mergeAcrossRanks(const ReducedTrace& reduced, const MergeOptions& options);

/// Incremental hierarchical merger: feed ranks one at a time (in rank order)
/// and the merger buffers at most one shard before folding it into the
/// shared store, so very many ranks merge in O(shard + shared store + output
/// exec tables) memory — the full per-rank ReducedTrace never needs to be
/// materialized. finish() returns the same bytes as the whole-trace overload
/// fed the same ranks (given the same name-interning order; addTrace interns
/// the input's full string table up front exactly like the serial pass).
class CrossRankMerger {
 public:
  explicit CrossRankMerger(const MergeOptions& options);
  ~CrossRankMerger();

  CrossRankMerger(const CrossRankMerger&) = delete;
  CrossRankMerger& operator=(const CrossRankMerger&) = delete;

  const MergeOptions& options() const { return options_; }

  /// Interns every name of `names` (in table order) ahead of the ranks that
  /// reference it. Idempotent per distinct name; calling with the whole
  /// trace's table before the first addRank reproduces the serial pass's
  /// string table bit-identically.
  void addNames(const StringTable& names);

  /// Feeds one rank's reduction. `names` is the table `rank`'s NameIds refer
  /// to; ids are remapped into the merger's own table (an identity mapping
  /// when addNames interned the same table up front). Throws
  /// std::logic_error after finish().
  void addRank(const StringTable& names, const RankReduced& rank);

  /// Feeds a whole reduced trace: full string table first, then every rank
  /// in order.
  void addTrace(const ReducedTrace& reduced);

  /// Ranks fed so far.
  std::size_t ranksAdded() const { return rankIds_.size(); }

  /// Folds any buffered partial shard, finalizes the policy (iter_avg's
  /// write-back), and returns the merged trace + stats. Single-shot.
  MergeResult finish();

 private:
  void flushShard();

  MergeOptions options_;
  StringTable names_;
  SegmentStore shared_;
  std::unique_ptr<SimilarityPolicy> commitPolicy_;
  DistancePolicy* probePolicy_;  ///< commitPolicy_ when it can probe, else null.
  MatchCounters commitBase_;
  MatchCounters probeCounters_;
  std::vector<Rank> rankIds_;
  std::vector<std::vector<SegmentExec>> execs_;
  std::vector<RankReduced> pending_;  ///< The shard being buffered.
  std::size_t inputReps_ = 0;
  bool finished_ = false;
};

/// Expands a merged trace back to per-rank segments (the cross-rank analogue
/// of core::reconstruct).
SegmentedTrace reconstructMerged(const MergedReducedTrace& merged);

}  // namespace tracered::core
