#include "core/cross_rank.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/reducer.hpp"

namespace tracered::core {

MergedReducedTrace mergeAcrossRanks(const ReducedTrace& reduced,
                                    SimilarityPolicy& policy, MergeStats* stats) {
  MergedReducedTrace out;
  for (const auto& s : reduced.names.all()) out.names.intern(s);
  out.execs.resize(reduced.ranks.size());
  out.rankIds.reserve(reduced.ranks.size());
  for (const RankReduced& rr : reduced.ranks) out.rankIds.push_back(rr.rank);

  policy.beginRank();  // one synthetic "rank" holding the shared store
  SegmentStore shared;
  MergeStats local;
  const MatchCounters counterBase = policy.matchCounters();

  for (std::size_t r = 0; r < reduced.ranks.size(); ++r) {
    const RankReduced& rr = reduced.ranks[r];
    // Map from this rank's representative id to the shared id.
    std::vector<SegmentId> remap(rr.stored.size());
    for (SegmentId id = 0; id < rr.stored.size(); ++id) {
      ++local.inputRepresentatives;
      const Segment& rep = rr.stored[id];
      const std::uint64_t sig = rep.signature();
      if (auto matched = policy.tryMatch(rep, sig, shared)) {
        remap[id] = *matched;
      } else {
        const SegmentId sharedId = shared.add(rep, sig);
        policy.onStored(shared.segment(sharedId), sharedId);
        remap[id] = sharedId;
      }
    }
    out.execs[r].reserve(rr.execs.size());
    for (const SegmentExec& e : rr.execs)
      out.execs[r].push_back(SegmentExec{remap.at(e.id), e.start});
  }

  policy.finishRank(shared);
  local.mergedRepresentatives = shared.size();
  local.counters = policy.matchCounters() - counterBase;
  out.sharedStore = std::move(shared).takeAll();
  if (stats != nullptr) *stats = local;
  return out;
}

SegmentedTrace reconstructMerged(const MergedReducedTrace& merged) {
  SegmentedTrace out;
  out.ranks.resize(merged.execs.size());
  for (std::size_t r = 0; r < merged.execs.size(); ++r) {
    RankSegments& rs = out.ranks[r];
    // Ranks fed sparsely (e.g. through OnlineReducer) keep their real ids;
    // hand-built traces without rankIds fall back to positional labels.
    rs.rank = r < merged.rankIds.size() ? merged.rankIds[r] : static_cast<Rank>(r);
    rs.segments.reserve(merged.execs[r].size());
    for (const SegmentExec& e : merged.execs[r]) {
      Segment seg = merged.sharedStore.at(e.id);
      seg.absStart = e.start;
      seg.rank = rs.rank;
      rs.segments.push_back(std::move(seg));
    }
  }
  return out;
}

CrossRankMerger::CrossRankMerger(const MergeOptions& options)
    : options_(options),
      commitPolicy_(options.config.makePolicy()),
      // The distance methods decide ≈ purely from (candidate, store
      // contents), so probing them against the frozen store prefix is sound;
      // the iteration-based methods' match target depends on commit-time
      // state (iter_k counts class members as of the commit; iter_avg
      // accumulates into its match), so they take the serial leg only.
      probePolicy_(dynamic_cast<DistancePolicy*>(commitPolicy_.get())) {
  if (options_.shardRanks == 0) options_.shardRanks = 1;
  commitPolicy_->beginRank();  // one synthetic "rank", as in the serial pass
  commitBase_ = commitPolicy_->matchCounters();
}

CrossRankMerger::~CrossRankMerger() = default;

void CrossRankMerger::addNames(const StringTable& names) {
  if (finished_) throw std::logic_error("cross-rank merger: addNames after finish");
  for (const auto& s : names.all()) names_.intern(s);
}

void CrossRankMerger::addRank(const StringTable& names, const RankReduced& rank) {
  if (finished_) throw std::logic_error("cross-rank merger: addRank after finish");
  // Remap the rank's name ids into the merger's table — an identity mapping
  // (no segment rewrite) when the caller interned the same table up front.
  std::vector<NameId> map(names.size());
  bool identity = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    map[i] = names_.intern(names.name(static_cast<NameId>(i)));
    identity = identity && map[i] == static_cast<NameId>(i);
  }
  RankReduced copy = rank;
  if (!identity) {
    for (Segment& s : copy.stored) {
      s.context = map.at(s.context);
      for (EventInterval& e : s.events) e.name = map.at(e.name);
    }
  }
  rankIds_.push_back(copy.rank);
  pending_.push_back(std::move(copy));
  if (pending_.size() >= options_.shardRanks) flushShard();
}

void CrossRankMerger::addTrace(const ReducedTrace& reduced) {
  addNames(reduced.names);  // full table first, like the serial pass
  for (const RankReduced& rr : reduced.ranks) addRank(reduced.names, rr);
}

void CrossRankMerger::flushShard() {
  if (pending_.empty()) return;
  const std::size_t nUnits = pending_.size();

  // Each candidate is hashed once, here; the sync, the probe, the commit
  // walk's tryMatch and the store insert all take the same signature.
  std::vector<std::vector<std::uint64_t>> sigs(nUnits);
  for (std::size_t unit = 0; unit < nUnits; ++unit) {
    sigs[unit].reserve(pending_[unit].stored.size());
    for (const Segment& rep : pending_[unit].stored) sigs[unit].push_back(rep.signature());
  }

  // Step 1 — probe: test every candidate of the shard against the store
  // prefix committed by earlier shards, which is frozen for the whole step
  // (all commits happen in step 2). Store order puts every frozen entry
  // before any in-shard addition, so an earliest frozen match IS the serial
  // first match, and a miss means the serial match (if any) lies inside the
  // shard — resolved serially below.
  //
  // The commit policy's cache and indexes over shared_ live for the whole
  // merge. First, serially, sync the buckets the shard's candidates hit
  // (index upkeep counts into the commit policy, once). Then the parallel
  // probe only reads that state: one unit per rank, each counting into its
  // own slot and computing features into its own scratch, so both the probe
  // results and the summed counters are independent of worker count and
  // scheduling.
  std::vector<std::vector<std::optional<SegmentId>>> probe(nUnits);
  if (probePolicy_ != nullptr && shared_.size() > 0) {
    for (const std::vector<std::uint64_t>& unitSigs : sigs)
      for (const std::uint64_t sig : unitSigs) probePolicy_->sync(sig, shared_);
    std::vector<MatchCounters> unitCounters(nUnits);
    runSharded(options_.config.executor, nUnits, [&](std::size_t, std::size_t unit) {
      const RankReduced& rr = pending_[unit];
      auto& res = probe[unit];
      res.resize(rr.stored.size());
      MatchCounters counters;
      SegmentFeatures scratch;
      for (SegmentId id = 0; id < rr.stored.size(); ++id)
        res[id] = probePolicy_->query(rr.stored[id], sigs[unit][id], shared_, counters,
                                      scratch);
      unitCounters[unit] = counters;
    });
    for (const MatchCounters& c : unitCounters) probeCounters_.merge(c);
  }

  // Step 2 — serial commit walk in candidate order, exactly the reference
  // pass: probe-matched candidates just remap; the rest run the full
  // tryMatch on the live store (finding in-shard additions) or are appended.
  // Match decisions are pure functions of (candidate, store, threshold) —
  // the index's bit-identity guarantee — so skipping the commit policy for
  // probe-matched candidates can never change a later decision.
  for (std::size_t unit = 0; unit < nUnits; ++unit) {
    const RankReduced& rr = pending_[unit];
    const auto& probed = probe[unit];
    std::vector<SegmentId> remap(rr.stored.size());
    for (SegmentId id = 0; id < rr.stored.size(); ++id) {
      ++inputReps_;
      const Segment& rep = rr.stored[id];
      const std::uint64_t sig = sigs[unit][id];
      std::optional<SegmentId> match;
      if (id < probed.size() && probed[id].has_value()) {
        match = probed[id];
      } else {
        match = commitPolicy_->tryMatch(rep, sig, shared_);
      }
      if (match.has_value()) {
        remap[id] = *match;
      } else {
        const SegmentId sharedId = shared_.add(rep, sig);
        commitPolicy_->onStored(shared_.segment(sharedId), sharedId);
        remap[id] = sharedId;
      }
    }
    auto& row = execs_.emplace_back();
    row.reserve(rr.execs.size());
    for (const SegmentExec& e : rr.execs)
      row.push_back(SegmentExec{remap.at(e.id), e.start});
  }
  pending_.clear();
}

MergeResult CrossRankMerger::finish() {
  if (finished_) throw std::logic_error("cross-rank merger: finish after finish");
  finished_ = true;
  flushShard();
  commitPolicy_->finishRank(shared_);  // iter_avg's write-back, once
  MergeResult out;
  out.stats.inputRepresentatives = inputReps_;
  out.stats.mergedRepresentatives = shared_.size();
  out.stats.counters = probeCounters_;
  out.stats.counters.merge(commitPolicy_->matchCounters() - commitBase_);
  out.merged.names = std::move(names_);
  out.merged.sharedStore = std::move(shared_).takeAll();
  out.merged.rankIds = std::move(rankIds_);
  out.merged.execs = std::move(execs_);
  return out;
}

MergeResult mergeAcrossRanks(const ReducedTrace& reduced, const MergeOptions& options) {
  CrossRankMerger merger(options);
  merger.addTrace(reduced);
  return merger.finish();
}

}  // namespace tracered::core
