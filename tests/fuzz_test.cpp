// Randomized property tests: a generator of random deadlock-free programs
// drives the whole pipeline and asserts structural invariants that must
// hold for ANY workload — the strongest guard against simulator and
// reduction regressions.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <tuple>

#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "sim/simulator.hpp"
#include "sim/validate.hpp"
#include "trace/segmenter.hpp"
#include "trace/text_io.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace tracered {
namespace {

/// Generates a random program that is deadlock-free by construction: it is
/// a sequence of *global steps*, each one of {per-rank compute, pairwise
/// buffered exchange, one-way synchronous sends, collective}, with all ops
/// of one iteration bracketed in a per-rank segment.
sim::Program randomProgram(SplitMix64& rng, int nRanks, int iterations) {
  sim::Program p(nRanks);
  std::vector<sim::RankProgramBuilder> b;
  b.reserve(static_cast<std::size_t>(nRanks));
  for (int r = 0; r < nRanks; ++r) b.emplace_back(p.ranks[static_cast<std::size_t>(r)]);

  for (int r = 0; r < nRanks; ++r) {
    b[static_cast<std::size_t>(r)].segBegin("init");
    b[static_cast<std::size_t>(r)].init();
    b[static_cast<std::size_t>(r)].segEnd("init");
  }

  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < nRanks; ++r) b[static_cast<std::size_t>(r)].segBegin("loop");
    const int steps = static_cast<int>(rng.nextInt(1, 3));
    for (int s = 0; s < steps; ++s) {
      switch (rng.nextInt(0, 3)) {
        case 0:  // compute
          for (int r = 0; r < nRanks; ++r)
            b[static_cast<std::size_t>(r)].compute(rng.nextInt(50, 2000));
          break;
        case 1: {  // pairwise buffered exchange (even -> odd)
          const std::uint32_t bytes = static_cast<std::uint32_t>(rng.nextInt(8, 4096));
          const std::int32_t tag = static_cast<std::int32_t>(rng.nextInt(0, 5));
          for (int r = 0; r + 1 < nRanks; r += 2) {
            b[static_cast<std::size_t>(r)].send(r + 1, tag, bytes);
            b[static_cast<std::size_t>(r + 1)].recv(r, tag, bytes);
          }
          break;
        }
        case 2: {  // one-way synchronous sends (odd -> even)
          const std::uint32_t bytes = static_cast<std::uint32_t>(rng.nextInt(8, 1024));
          for (int r = 0; r + 1 < nRanks; r += 2) {
            b[static_cast<std::size_t>(r + 1)].ssend(r, 9, bytes);
            b[static_cast<std::size_t>(r)].recv(r + 1, 9, bytes);
          }
          break;
        }
        case 3: {  // collective
          static const OpKind kinds[] = {OpKind::kBarrier, OpKind::kBcast,
                                         OpKind::kGather,  OpKind::kReduce,
                                         OpKind::kAlltoall, OpKind::kAllreduce};
          const OpKind kind = kinds[rng.nextInt(0, 5)];
          const Rank root = static_cast<Rank>(rng.nextInt(0, nRanks - 1));
          const std::uint32_t bytes = static_cast<std::uint32_t>(rng.nextInt(8, 2048));
          for (int r = 0; r < nRanks; ++r)
            b[static_cast<std::size_t>(r)].collective(kind, root, bytes);
          break;
        }
      }
    }
    for (int r = 0; r < nRanks; ++r) b[static_cast<std::size_t>(r)].segEnd("loop");
  }

  for (int r = 0; r < nRanks; ++r) {
    b[static_cast<std::size_t>(r)].segBegin("final");
    b[static_cast<std::size_t>(r)].finalize();
    b[static_cast<std::size_t>(r)].segEnd("final");
  }
  return p;
}

class RandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgram, PipelineInvariantsHold) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int nRanks = static_cast<int>(rng.nextInt(2, 8));
  const int iterations = static_cast<int>(rng.nextInt(3, 12));
  const sim::Program program = randomProgram(rng, nRanks, iterations);

  // 1. The generator only emits statically valid programs.
  ASSERT_TRUE(sim::isValid(sim::validateProgram(program)));

  // 2. Simulation terminates (no deadlock) and produces monotonic per-rank
  //    records with balanced enters/exits.
  sim::SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  const Trace trace = sim::simulate(program, cfg);
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    TimeUs prev = 0;
    int depth = 0;
    for (const RawRecord& rec : trace.rank(r).records) {
      ASSERT_GE(rec.time, prev);
      prev = rec.time;
      if (rec.kind == RecordKind::kEnter) ++depth;
      if (rec.kind == RecordKind::kExit) --depth;
      ASSERT_GE(depth, 0);
      ASSERT_LE(depth, 1);  // flat event model
    }
    ASSERT_EQ(depth, 0);
  }

  // 3. Causality: a receive never completes before its matching send began.
  std::map<std::tuple<Rank, Rank, std::int32_t>, std::vector<TimeUs>> sendEnters;
  std::map<std::tuple<Rank, Rank, std::int32_t>, std::vector<TimeUs>> recvExits;
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    const auto& recs = trace.rank(r).records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].kind != RecordKind::kEnter) continue;
      if (recs[i].op == OpKind::kSend || recs[i].op == OpKind::kSsend) {
        sendEnters[{r, recs[i].msg.peer, recs[i].msg.tag}].push_back(recs[i].time);
      } else if (recs[i].op == OpKind::kRecv) {
        for (std::size_t j = i + 1; j < recs.size(); ++j) {
          if (recs[j].kind == RecordKind::kExit && recs[j].name == recs[i].name) {
            recvExits[{recs[i].msg.peer, r, recs[i].msg.tag}].push_back(recs[j].time);
            break;
          }
        }
      }
    }
  }
  for (const auto& [key, exits] : recvExits) {
    const auto& sends = sendEnters[key];
    ASSERT_LE(exits.size(), sends.size());
    for (std::size_t k = 0; k < exits.size(); ++k) ASSERT_GT(exits[k], sends[k]);
  }

  // 4. Segmentation succeeds and both file formats round-trip.
  const SegmentedTrace st = segmentTrace(trace);
  ASSERT_GT(st.totalSegments(), 0u);
  const Trace viaBinary = deserializeFullTrace(serializeFullTrace(trace));
  ASSERT_EQ(viaBinary.totalRecords(), trace.totalRecords());
  const Trace viaText = traceFromText(traceToText(trace));
  ASSERT_EQ(serializeFullTrace(viaText), serializeFullTrace(trace));

  // 5. Online and offline reduction agree; reconstruction is structurally
  //    exact; exec starts are the true starts.
  for (core::Method m : {core::Method::kAbsDiff, core::Method::kAvgWave,
                         core::Method::kIterAvg}) {
    auto policy = core::makeDefaultPolicy(m);
    const core::ReductionResult off = core::reduceTrace(st, trace.names(), *policy);
    core::ReductionSession onl(trace.names(), core::ReductionConfig::defaults(m));
    for (Rank r = 0; r < trace.numRanks(); ++r)
      for (const RawRecord& rec : trace.rank(r).records) onl.feed(r, rec);
    const core::ReductionResult on = onl.finish();
    ASSERT_EQ(on.stats.matches, off.stats.matches) << core::methodName(m);
    ASSERT_EQ(on.stats.storedSegments, off.stats.storedSegments);

    const SegmentedTrace rec = core::reconstruct(off.reduced);
    ASSERT_EQ(rec.totalSegments(), st.totalSegments());
    ASSERT_EQ(rec.totalEvents(), st.totalEvents());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram, ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Scenario round trips: every registered scenario generator's output must
// survive both file formats through both reader modes (whole-buffer and
// chunked) and the desegment∘segment inverse, byte for byte.

class ScenarioRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioRoundTrip, FilesAndSegmentationRoundTripExactly) {
  eval::WorkloadOptions opts;
  opts.scale = 0.05;
  opts.seed = 11;
  const Trace trace = eval::runWorkload(GetParam(), opts);
  const auto bytes = serializeFullTrace(trace);

  std::string stem = GetParam();
  for (auto& ch : stem)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';

  // TRF1 on disk: writer emits the canonical bytes; whole-file and chunked
  // reads reproduce them.
  const std::string binPath = ::testing::TempDir() + "fuzz_" + stem + ".trf";
  writeTraceFile(binPath, trace, TraceFileFormat::kFullBinary);
  EXPECT_EQ(readFile(binPath), bytes);
  EXPECT_EQ(serializeFullTrace(TraceFileReader(binPath).readAll()), bytes);
  EXPECT_EQ(serializeFullTrace(TraceFileReader(binPath, /*chunkBytes=*/256).readAll()),
            bytes);

  // Text on disk: binary -> text -> binary is exact, whole and chunked.
  const std::string txtPath = ::testing::TempDir() + "fuzz_" + stem + ".txt";
  writeTraceFile(txtPath, trace, TraceFileFormat::kText);
  EXPECT_EQ(serializeFullTrace(TraceFileReader(txtPath).readAll()), bytes);
  EXPECT_EQ(serializeFullTrace(TraceFileReader(txtPath, /*chunkBytes=*/256).readAll()),
            bytes);
  EXPECT_EQ(serializeFullTrace(traceFromText(traceToText(trace))), bytes);

  // desegmentTrace is segmentTrace's exact inverse on simulator output.
  const SegmentedTrace segmented = segmentTrace(trace);
  ASSERT_GT(segmented.totalSegments(), 0u);
  EXPECT_EQ(serializeFullTrace(desegmentTrace(segmented, trace.names())), bytes);

  std::remove(binPath.c_str());
  std::remove(txtPath.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioRoundTrip,
                         ::testing::ValuesIn(eval::scenarioWorkloads()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name;
                         });

TEST(FuzzTraceIO, CorruptedBinaryInputNeverCrashes) {
  SplitMix64 rng(123);
  Trace base(1);
  {
    RankTraceWriter w(base, 0);
    w.segBegin("s", 0);
    w.enter("f", OpKind::kCompute, 1);
    w.exit("f", 10);
    w.segEnd("s", 11);
  }
  const auto bytes = serializeFullTrace(base);
  for (int rep = 0; rep < 500; ++rep) {
    auto corrupted = bytes;
    const std::size_t pos = static_cast<std::size_t>(
        rng.nextInt(0, static_cast<std::int64_t>(corrupted.size()) - 1));
    corrupted[pos] ^= static_cast<std::uint8_t>(rng.nextInt(1, 255));
    try {
      const Trace t = deserializeFullTrace(corrupted);
      (void)t;  // decoding to a different-but-wellformed trace is fine
    } catch (const std::exception&) {
      // throwing is the expected failure mode
    }
  }
}

TEST(FuzzTraceIO, TruncatedBinaryInputNeverCrashes) {
  Trace base(2);
  for (Rank r = 0; r < 2; ++r) {
    RankTraceWriter w(base, r);
    w.segBegin("s", 0);
    w.enter("f", OpKind::kCompute, 1);
    w.exit("f", 10);
    w.segEnd("s", 11);
  }
  const auto bytes = serializeFullTrace(base);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(deserializeFullTrace(prefix), std::exception) << "len=" << len;
  }
}

}  // namespace
}  // namespace tracered
