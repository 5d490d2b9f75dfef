// Tests for the Sweep3D KBA proxy: geometry, wavefront dependencies,
// message structure, segment-context shape.
#include <gtest/gtest.h>

#include <set>

#include "sweep3d/sweep3d.hpp"
#include "trace/segmenter.hpp"

namespace tracered::sweep3d {
namespace {

Sweep3DConfig tiny() {
  Sweep3DConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.nx = cfg.ny = 20;
  cfg.nz = 20;
  cfg.mk = 10;
  cfg.mmi = 3;
  cfg.angles = 6;
  cfg.iterations = 2;
  return cfg;
}

TEST(Sweep3D, PaperConfigs) {
  const Sweep3DConfig c8 = config8p();
  EXPECT_EQ(c8.ranks(), 8);
  EXPECT_EQ(c8.nx, 50);
  EXPECT_EQ(c8.kBlocks(), 5);
  EXPECT_EQ(c8.angleBlocks(), 2);
  const Sweep3DConfig c32 = config32p();
  EXPECT_EQ(c32.ranks(), 32);
  EXPECT_EQ(c32.nx, 150);
  EXPECT_EQ(c32.kBlocks(), 15);
}

TEST(Sweep3D, SimulatesWithoutDeadlockAndSegments) {
  const Trace trace = runSweep3D(tiny());
  EXPECT_EQ(trace.numRanks(), 4);
  EXPECT_NO_THROW(segmentTrace(trace));
}

TEST(Sweep3D, ProgramHasAllSegmentContexts) {
  const Trace trace = runSweep3D(tiny());
  for (const char* ctx : {"init", "it.src", "it.oct.kb", "it.flux", "final"})
    EXPECT_NE(trace.names().find(ctx), kInvalidName) << ctx;
}

TEST(Sweep3D, SegmentCountMatchesStructure) {
  const Sweep3DConfig cfg = tiny();
  const Trace trace = runSweep3D(cfg);
  const SegmentedTrace st = segmentTrace(trace);
  // Per rank: init + final + per iteration (1 src + 8*ab*kb blocks + 1 flux).
  const std::size_t perIter =
      1 + 8 * static_cast<std::size_t>(cfg.angleBlocks() * cfg.kBlocks()) + 1;
  const std::size_t expected = 2 + static_cast<std::size_t>(cfg.iterations) * perIter;
  for (const auto& rank : st.ranks) EXPECT_EQ(rank.size(), expected);
}

TEST(Sweep3D, CornerRankHasOctantsWithoutReceives) {
  const Sweep3DConfig cfg = tiny();
  const Trace trace = runSweep3D(cfg);
  const SegmentedTrace st = segmentTrace(trace);
  // Rank 0 sits at mesh corner (0,0): for the (+i,+j) octant its pipeline
  // blocks have no receives (it is the sweep origin), for the (-i,-j) octant
  // it has two receives.
  const NameId kb = trace.names().find("it.oct.kb");
  std::set<std::size_t> recvCounts;
  for (const SegmentView s : st.ranks[0]) {
    if (s.context != kb) continue;
    std::size_t recvs = 0;
    for (const auto& e : s.events)
      if (e.op == OpKind::kRecv) ++recvs;
    recvCounts.insert(recvs);
  }
  EXPECT_TRUE(recvCounts.count(0)) << "corner rank should start some sweeps";
  EXPECT_TRUE(recvCounts.count(2)) << "corner rank should finish some sweeps";
}

TEST(Sweep3D, WavefrontOrderingHolds) {
  // For the (+i,+j) octant (oct index with both direction bits set), rank 0's
  // first block-send must precede rank 3's (downstream corner) first
  // block-recv completion.
  const Sweep3DConfig cfg = tiny();
  const Trace trace = runSweep3D(cfg);
  // Find rank 0's first MPI_Send exit and rank 3's first MPI_Recv exit for
  // matching tags (octant 3 = +i,+j).
  const NameId send = trace.names().find("MPI_Send");
  const NameId recv = trace.names().find("MPI_Recv");
  TimeUs firstSendExit = -1;
  for (const auto& rec : trace.rank(0).records) {
    if (rec.kind == RecordKind::kEnter && rec.name == send && rec.msg.tag == 3) {
      firstSendExit = rec.time;
      break;
    }
  }
  TimeUs firstRecvExit = -1;
  for (std::size_t i = 0; i < trace.rank(3).records.size(); ++i) {
    const auto& rec = trace.rank(3).records[i];
    if (rec.kind == RecordKind::kEnter && rec.name == recv && rec.msg.tag == 3) {
      for (std::size_t j = i + 1; j < trace.rank(3).records.size(); ++j) {
        if (trace.rank(3).records[j].kind == RecordKind::kExit &&
            trace.rank(3).records[j].name == recv) {
          firstRecvExit = trace.rank(3).records[j].time;
          break;
        }
      }
      break;
    }
  }
  ASSERT_GE(firstSendExit, 0);
  ASSERT_GE(firstRecvExit, 0);
  EXPECT_GT(firstRecvExit, firstSendExit);
}

TEST(Sweep3D, MessageSizesScaleWithFaceArea) {
  const Sweep3DConfig cfg = tiny();
  const Trace trace = runSweep3D(cfg);
  // i-direction faces carry nj*mk*mmi*8 bytes = 10*10*3*8 = 2400.
  const NameId send = trace.names().find("MPI_Send");
  bool sawIFace = false;
  for (const auto& rec : trace.rank(0).records) {
    if (rec.kind == RecordKind::kEnter && rec.name == send) {
      if (rec.msg.peer == 1) {  // i-neighbour of rank 0 in a 2x2 mesh
        EXPECT_EQ(rec.msg.bytes, 2400u);
        sawIFace = true;
      }
    }
  }
  EXPECT_TRUE(sawIFace);
}

TEST(Sweep3D, EightOctantTagsAppear) {
  const Trace trace = runSweep3D(tiny());
  std::set<std::int32_t> tags;
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const auto& rec : trace.rank(r).records)
      if (rec.kind == RecordKind::kEnter && rec.op == OpKind::kSend)
        tags.insert(rec.msg.tag);
  EXPECT_EQ(tags.size(), 8u);
}

TEST(Sweep3D, DeterministicForFixedSeed) {
  const Sweep3DConfig cfg = tiny();
  const Trace a = runSweep3D(cfg);
  const Trace b = runSweep3D(cfg);
  for (Rank r = 0; r < a.numRanks(); ++r) {
    ASSERT_EQ(a.rank(r).records.size(), b.rank(r).records.size());
    for (std::size_t i = 0; i < a.rank(r).records.size(); ++i)
      ASSERT_EQ(a.rank(r).records[i], b.rank(r).records[i]);
  }
}

TEST(Sweep3D, RemainderCellsGoToLowRanks) {
  Sweep3DConfig cfg = tiny();
  cfg.nx = 21;  // 21 over px=2 -> 11 + 10
  const sim::Program p = makeProgram(cfg);
  EXPECT_EQ(p.numRanks(), 4);
  // Verified indirectly: the program builds and simulates.
  EXPECT_NO_THROW(simulate(p, sim::SimConfig{}));
}

}  // namespace
}  // namespace tracered::sweep3d
