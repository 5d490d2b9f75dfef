// Shared helpers for the tracered test suites.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"

namespace tracered::testing {

/// Compact event spec for building segments in tests.
struct Ev {
  std::string name;
  OpKind op = OpKind::kCompute;
  TimeUs start = 0;
  TimeUs end = 0;
  MsgInfo msg{};
};

/// Builds a rebased segment (absStart separate, events relative).
inline Segment makeSegment(StringTable& names, const std::string& context,
                           TimeUs absStart, TimeUs end, const std::vector<Ev>& events,
                           Rank rank = 0) {
  Segment s;
  s.context = names.intern(context);
  s.rank = rank;
  s.absStart = absStart;
  s.end = end;
  for (const Ev& e : events) {
    EventInterval ev;
    ev.name = names.intern(e.name);
    ev.op = e.op;
    ev.start = e.start;
    ev.end = e.end;
    ev.msg = e.msg;
    s.events.push_back(ev);
  }
  return s;
}

/// The three worked segments of the paper's Fig. 2 (times relative to the
/// segment start, "main.1" context, one do_work then one MPI_Allgather):
///   s0: do_work [1,20],  MPI_Allgather [21,49], end 50
///   s1: do_work [1,40],  MPI_Allgather [41,50], end 51
///   s2: do_work [1,17],  MPI_Allgather [18,48], end 49
/// These reproduce the paper's example distances: Manhattan(s2,s1)=50,
/// Euclidean(s2,s1)≈32.65, Chebyshev(s2,s1)=23; Manhattan(s2,s0)=8,
/// Euclidean(s2,s0)=4.5(≈), Chebyshev(s2,s0)=3.
struct Fig2Segments {
  StringTable names;
  Segment s0, s1, s2;
};

inline Fig2Segments fig2() {
  Fig2Segments f;
  MsgInfo ag;
  ag.root = -1;
  ag.comm = 0;
  ag.bytes = 8;
  f.s0 = makeSegment(f.names, "main.1", 100, 50,
                     {{"do_work", OpKind::kCompute, 1, 20, {}},
                      {"MPI_Allgather", OpKind::kAllgather, 21, 49, ag}});
  f.s1 = makeSegment(f.names, "main.1", 200, 51,
                     {{"do_work", OpKind::kCompute, 1, 40, {}},
                      {"MPI_Allgather", OpKind::kAllgather, 41, 50, ag}});
  f.s2 = makeSegment(f.names, "main.1", 300, 49,
                     {{"do_work", OpKind::kCompute, 1, 17, {}},
                      {"MPI_Allgather", OpKind::kAllgather, 18, 48, ag}});
  return f;
}

/// policy.tryMatch with the candidate's own signature, as the reducer calls
/// it for every segment it consumes.
inline std::optional<SegmentId> tryMatch(core::SimilarityPolicy& policy,
                                         const Segment& candidate,
                                         core::SegmentStore& store) {
  return policy.tryMatch(candidate, candidate.signature(), store);
}

}  // namespace tracered::testing
