#include "analysis/analyzer.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace tracered::analysis {

namespace {

/// An event with absolute timestamps plus its owning rank.
struct AbsEvent {
  NameId name = kInvalidName;
  OpKind op = OpKind::kCompute;
  TimeUs start = 0;
  TimeUs end = 0;
  MsgInfo msg;
  Rank rank = 0;

  TimeUs duration() const { return end - start; }
};

using ChannelKey = std::tuple<Rank, Rank, std::int32_t>;  // src, dst, tag

struct Channel {
  std::vector<AbsEvent> sends;
  std::vector<AbsEvent> recvs;
};

double clampWait(double wait, double duration) {
  return std::max(0.0, std::min(wait, duration));
}

}  // namespace

SeverityCube analyze(const SegmentedTrace& trace, const AnalyzerOptions& opts) {
  const int numRanks = static_cast<int>(trace.ranks.size());
  SeverityCube cube(numRanks);

  std::map<ChannelKey, Channel> channels;
  // collectives[r] = rank r's collective events in execution order.
  std::vector<std::vector<AbsEvent>> collectives(static_cast<std::size_t>(numRanks));

  for (const RankSegments& rank : trace.ranks) {
    for (const SegmentView seg : rank) {
      for (const EventInterval& e : seg.events) {
        AbsEvent ev;
        ev.name = e.name;
        ev.op = e.op;
        ev.start = seg.absStart + e.start;
        ev.end = seg.absStart + e.end;
        ev.msg = e.msg;
        ev.rank = rank.rank;

        cube.add(Metric::kExecutionTime, ev.name, ev.rank,
                 static_cast<double>(ev.duration()));

        if (ev.op == OpKind::kSend || ev.op == OpKind::kSsend) {
          channels[{ev.rank, ev.msg.peer, ev.msg.tag}].sends.push_back(ev);
        } else if (ev.op == OpKind::kRecv) {
          channels[{ev.msg.peer, ev.rank, ev.msg.tag}].recvs.push_back(ev);
        } else if (isCollective(ev.op)) {
          collectives[static_cast<std::size_t>(rank.rank)].push_back(ev);
        }
      }
    }
  }

  // --- Point-to-point patterns -------------------------------------------
  for (const auto& [key, ch] : channels) {
    const std::size_t n = std::min(ch.sends.size(), ch.recvs.size());
    for (std::size_t k = 0; k < n; ++k) {
      const AbsEvent& s = ch.sends[k];
      const AbsEvent& r = ch.recvs[k];
      // Late Sender: the receive sat blocked until the send started.
      const double lsWait = static_cast<double>(s.start - r.start);
      if (lsWait > 0.0)
        cube.add(Metric::kLateSender, r.name, r.rank,
                 clampWait(lsWait, static_cast<double>(r.duration())));
      // Late Receiver: a synchronous send sat blocked until the receive
      // was posted.
      if (s.op == OpKind::kSsend) {
        const double lrWait = static_cast<double>(r.start - s.start);
        if (lrWait > 0.0)
          cube.add(Metric::kLateReceiver, s.name, s.rank,
                   clampWait(lrWait, static_cast<double>(s.duration())));
      }
    }
  }

  // --- Collective patterns -----------------------------------------------
  std::size_t minCount = collectives.empty() ? 0 : collectives[0].size();
  for (const auto& v : collectives) minCount = std::min(minCount, v.size());

  for (std::size_t k = 0; k < minCount; ++k) {
    const OpKind op = collectives[0][k].op;
    const Rank root = collectives[0][k].msg.root;

    TimeUs lastEnter = 0;
    TimeUs lastNonRootEnter = 0;
    bool haveNonRoot = false;
    for (int r = 0; r < numRanks; ++r) {
      const AbsEvent& ev = collectives[static_cast<std::size_t>(r)][k];
      if (ev.op != op) {
        throw std::runtime_error("analyze: collective sequence mismatch across ranks");
      }
      lastEnter = std::max(lastEnter, ev.start);
      if (r != root) {
        lastNonRootEnter = haveNonRoot ? std::max(lastNonRootEnter, ev.start) : ev.start;
        haveNonRoot = true;
      }
    }

    if (isNxN(op) || ((op == OpKind::kInit || op == OpKind::kFinalize) &&
                      opts.includeInitFinalize)) {
      const Metric metric =
          (op == OpKind::kBarrier || op == OpKind::kInit || op == OpKind::kFinalize)
              ? Metric::kWaitAtBarrier
              : Metric::kWaitAtNxN;
      for (int r = 0; r < numRanks; ++r) {
        const AbsEvent& ev = collectives[static_cast<std::size_t>(r)][k];
        const double wait = static_cast<double>(lastEnter - ev.start);
        cube.add(metric, ev.name, ev.rank,
                 clampWait(wait, static_cast<double>(ev.duration())));
      }
    } else if (isNto1(op) && root >= 0 && haveNonRoot) {
      // Early Reduce: the root entered before its senders and sat blocked.
      // We charge the root's wait up to the *last* sender's arrival (its
      // actual blocking time); EXPERT's Early Reduce counts only to the
      // first sender, which would hide straggler-driven N-to-1 inefficiency
      // on otherwise balanced programs.
      const AbsEvent& rootEv = collectives[static_cast<std::size_t>(root)][k];
      const double wait = static_cast<double>(lastNonRootEnter - rootEv.start);
      if (wait > 0.0)
        cube.add(Metric::kEarlyReduce, rootEv.name, rootEv.rank,
                 clampWait(wait, static_cast<double>(rootEv.duration())));
    } else if (is1toN(op) && root >= 0) {
      const AbsEvent& rootEv = collectives[static_cast<std::size_t>(root)][k];
      for (int r = 0; r < numRanks; ++r) {
        if (r == root) continue;
        const AbsEvent& ev = collectives[static_cast<std::size_t>(r)][k];
        const double wait = static_cast<double>(rootEv.start - ev.start);
        if (wait > 0.0)
          cube.add(Metric::kLateBroadcast, ev.name, ev.rank,
                   clampWait(wait, static_cast<double>(ev.duration())));
      }
    }
  }

  return cube;
}

}  // namespace tracered::analysis
