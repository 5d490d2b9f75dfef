// Tests for the human-readable trace format.
#include <gtest/gtest.h>

#include <sstream>

#include "eval/workloads.hpp"
#include "trace/text_io.hpp"
#include "trace/trace_io.hpp"

namespace tracered {
namespace {

Trace sample() {
  Trace trace(2);
  for (Rank r = 0; r < 2; ++r) {
    RankTraceWriter w(trace, r);
    w.segBegin("init", 0);
    w.enter("MPI_Init", OpKind::kInit, 1);
    w.exit("MPI_Init", 20);
    w.segEnd("init", 21);
    w.segBegin("main.1", 100);
    w.enter("do_work", OpKind::kCompute, 101);
    w.exit("do_work", 900);
    MsgInfo m;
    m.peer = 1 - r;
    m.tag = 4;
    m.bytes = 256;
    m.comm = 0;
    if (r == 0) {
      w.enter("MPI_Send", OpKind::kSend, 901, m);
      w.exit("MPI_Send", 905);
    } else {
      w.enter("MPI_Recv", OpKind::kRecv, 901, m);
      w.exit("MPI_Recv", 950);
    }
    w.segEnd("main.1", 960);
  }
  return trace;
}

void expectTracesEqual(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.numRanks(), b.numRanks());
  for (Rank r = 0; r < a.numRanks(); ++r) {
    ASSERT_EQ(a.rank(r).records.size(), b.rank(r).records.size());
    for (std::size_t i = 0; i < a.rank(r).records.size(); ++i)
      EXPECT_EQ(a.rank(r).records[i], b.rank(r).records[i]);
  }
  ASSERT_EQ(a.names().size(), b.names().size());
  for (NameId id = 0; id < a.names().size(); ++id)
    EXPECT_EQ(a.names().name(id), b.names().name(id));
}

TEST(TextIO, RoundTripsSampleTrace) {
  const Trace t = sample();
  expectTracesEqual(t, traceFromText(traceToText(t)));
}

TEST(TextIO, RoundTripsSimulatedWorkload) {
  eval::WorkloadOptions opts;
  opts.scale = 0.05;
  const Trace t = eval::runWorkload("late_broadcast", opts);
  expectTracesEqual(t, traceFromText(traceToText(t)));
}

TEST(TextIO, AgreesWithBinaryFormat) {
  const Trace t = sample();
  const Trace viaText = traceFromText(traceToText(t));
  EXPECT_EQ(serializeFullTrace(viaText), serializeFullTrace(t));
}

TEST(TextIO, IgnoresCommentsAndBlankLines) {
  const Trace t = traceFromText(
      "# a comment\n"
      "\n"
      "ranks 1\n"
      "string 0 ctx\n"
      "rank 0\n"
      "# another comment\n"
      "B 0 0\n"
      "E 10 0\n");
  EXPECT_EQ(t.numRanks(), 1);
  EXPECT_EQ(t.rank(0).records.size(), 2u);
}

TEST(TextIO, ParsesMessageInfo) {
  const Trace t = traceFromText(
      "ranks 1\n"
      "string 0 MPI_Send\n"
      "rank 0\n"
      "> 5 0 1 3 7 -1 0 128\n"
      "< 9 0\n");
  const RawRecord& rec = t.rank(0).records[0];
  EXPECT_EQ(rec.op, OpKind::kSend);
  EXPECT_EQ(rec.msg.peer, 3);
  EXPECT_EQ(rec.msg.tag, 7);
  EXPECT_EQ(rec.msg.bytes, 128u);
}

TEST(TextIO, RejectsMalformedInput) {
  EXPECT_THROW(traceFromText("bogus\n"), std::runtime_error);
  EXPECT_THROW(traceFromText(""), std::runtime_error);  // missing header
  EXPECT_THROW(traceFromText("ranks 1\nB 0 0\n"), std::runtime_error);  // no rank line
  EXPECT_THROW(traceFromText("ranks 1\nrank 5\n"), std::runtime_error);  // bad rank id
  EXPECT_THROW(traceFromText("ranks 1\nstring 3 x\n"), std::runtime_error);  // id gap
  EXPECT_THROW(traceFromText("ranks 1\nstring 0 x\nrank 0\nB 0 9\n"),
               std::runtime_error);  // unknown name
  EXPECT_THROW(traceFromText("ranks 1\nstring 0 x\nrank 0\n> 0 0 99\n"),
               std::runtime_error);  // unknown op
  // Message info: all five fields or none, each within its 32-bit field
  // (docs/FORMATS.md §0.1), as the binary readers require.
  const std::string enter = "ranks 1\nstring 0 x\nrank 0\n> 0 0 1 ";
  EXPECT_THROW(traceFromText(enter + "3 7 -1\n"), std::runtime_error);  // incomplete
  EXPECT_THROW(traceFromText(enter + "2147483648 7 -1 0 128\n"), std::runtime_error);
  EXPECT_THROW(traceFromText(enter + "3 7 -2147483649 0 128\n"), std::runtime_error);
  EXPECT_THROW(traceFromText(enter + "3 7 -1 0 4294967296\n"), std::runtime_error);
  EXPECT_THROW(traceFromText(enter + "3 7 -1 0 -1\n"), std::runtime_error);
  EXPECT_THROW(traceFromText(enter + "peer 7 -1 0 128\n"), std::runtime_error);
  EXPECT_EQ(traceFromText(enter + "2147483647 7 -2147483648 0 4294967295\n")
                .rank(0)
                .records[0]
                .msg.peer,
            2147483647);
  // A second `ranks` directive would let whole-file and chunked parsing
  // diverge (chunked readers snapshot the count at open): reject it.
  EXPECT_THROW(traceFromText("ranks 1\nstring 0 x\nrank 0\nB 0 0\nE 1 0\nranks 2\n"),
               std::runtime_error);
}

TEST(TextIO, RejectsSparseRankIdsOnWrite) {
  // Sparse rank ids are legal in TRF1 but inexpressible in text; converting
  // such a trace must fail loudly, not emit a file the parser rejects.
  Trace t(1);
  t.rank(0).rank = 5;
  EXPECT_THROW(traceToText(t), std::runtime_error);
  // Duplicate in-range ids are just as bad: the parser would silently merge
  // the two sections into one rank, round-tripping to a different trace.
  Trace dup(2);
  dup.rank(0).rank = 1;
  EXPECT_THROW(traceToText(dup), std::runtime_error);
}

TEST(TextIO, ErrorsCarryLineNumbers) {
  try {
    traceFromText("ranks 1\nstring 0 x\nrank 0\nB 0 9\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(TextIO, IncrementalParserYieldsRecordsLineByLine) {
  TextTraceParser parser;
  EXPECT_FALSE(parser.feedLine("# tracered text trace v1"));
  EXPECT_FALSE(parser.feedLine("ranks 2"));
  EXPECT_EQ(parser.declaredRanks(), 2);
  EXPECT_FALSE(parser.feedLine("string 0 main.1"));
  EXPECT_FALSE(parser.feedLine("rank 1"));
  EXPECT_TRUE(parser.feedLine("B 10 0"));
  EXPECT_EQ(parser.currentRank(), 1);
  EXPECT_EQ(parser.record().kind, RecordKind::kSegBegin);
  EXPECT_EQ(parser.record().time, 10);
  EXPECT_TRUE(parser.feedLine("E 20 0"));
  EXPECT_EQ(parser.record().kind, RecordKind::kSegEnd);
  parser.finish();  // header was seen

  TextTraceParser empty;
  EXPECT_THROW(empty.finish(), std::runtime_error);  // no 'ranks' header
}

TEST(TextIO, StreamingWriterMatchesTraceToText) {
  const Trace trace = sample();
  std::ostringstream os;
  writeTextHeader(os, trace.names(), trace.numRanks());
  for (Rank r = 0; r < trace.numRanks(); ++r) writeTextRank(os, trace.rank(r));
  EXPECT_EQ(os.str(), traceToText(trace));
}

}  // namespace
}  // namespace tracered
