// Round-trip and size-behaviour tests for the binary trace formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/reduction_config.hpp"
#include "serve/feeder.hpp"
#include "trace/trace_codec.hpp"
#include "trace/trace_decoder.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"
#include "trace/segmenter.hpp"
#include "test_helpers.hpp"
#include "util/bytebuf.hpp"

namespace tracered {
namespace {

Trace smallTrace() {
  Trace trace(2);
  for (Rank r = 0; r < 2; ++r) {
    RankTraceWriter w(trace, r);
    w.segBegin("init", 0);
    w.enter("MPI_Init", OpKind::kInit, 1);
    w.exit("MPI_Init", 30);
    w.segEnd("init", 31);
    for (int i = 0; i < 3; ++i) {
      const TimeUs base = 100 + 50 * i;
      w.segBegin("main.1", base);
      w.enter("do_work", OpKind::kCompute, base + 1);
      w.exit("do_work", base + 20);
      MsgInfo m;
      m.peer = 1 - r;
      m.tag = 7;
      m.bytes = 64;
      m.comm = 0;
      if (r == 0) {
        w.enter("MPI_Send", OpKind::kSend, base + 21, m);
        w.exit("MPI_Send", base + 25);
      } else {
        w.enter("MPI_Recv", OpKind::kRecv, base + 21, m);
        w.exit("MPI_Recv", base + 30);
      }
      w.segEnd("main.1", base + 31);
    }
  }
  return trace;
}

TEST(TraceIO, FullTraceRoundTrips) {
  const Trace trace = smallTrace();
  const auto bytes = serializeFullTrace(trace);
  const Trace back = deserializeFullTrace(bytes);
  ASSERT_EQ(back.numRanks(), trace.numRanks());
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    ASSERT_EQ(back.rank(r).records.size(), trace.rank(r).records.size());
    for (std::size_t i = 0; i < trace.rank(r).records.size(); ++i) {
      EXPECT_EQ(back.rank(r).records[i], trace.rank(r).records[i]);
    }
  }
  EXPECT_EQ(back.names().size(), trace.names().size());
  for (NameId id = 0; id < trace.names().size(); ++id)
    EXPECT_EQ(back.names().name(id), trace.names().name(id));
}

TEST(TraceIO, FullTraceRejectsGarbage) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(deserializeFullTrace(junk), std::runtime_error);
  EXPECT_THROW(deserializeFullTrace({}), std::out_of_range);
}

TEST(TraceIO, FullTraceRejectsTrailingBytes) {
  auto bytes = serializeFullTrace(smallTrace());
  bytes.push_back(0);
  EXPECT_THROW(deserializeFullTrace(bytes), std::runtime_error);
}

/// The exception message of `fn()`; empty (and a test failure) if nothing
/// is thrown.
template <class Fn>
std::string thrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

// FORMATS.md §1: rank sections must have strictly ascending ids, and every
// reader — whole-buffer, chunked file, serve feeder — rejects a file that
// breaks the rule, out-of-order and duplicate ids alike.
TEST(TraceIO, EveryReaderRejectsRankSectionsOutOfAscendingOrder) {
  for (const std::vector<Rank>& ids : {std::vector<Rank>{1, 0}, std::vector<Rank>{0, 0}}) {
    SCOPED_TRACE(std::to_string(ids[0]) + ", " + std::to_string(ids[1]));
    ByteWriter w;
    w.u32(codec::kFullMagic);
    w.u8(codec::kVersion);
    w.uvarint(0);  // empty string table
    w.uvarint(ids.size());
    for (const Rank id : ids) {
      w.uvarint(static_cast<std::uint64_t>(id));
      w.uvarint(0);  // no records
    }
    const std::vector<std::uint8_t> bytes = w.bytes();
    const std::string path = ::testing::TempDir() + "rank_order.trf";
    writeFile(path, bytes);

    const std::string want = "out of ascending order";
    EXPECT_NE(thrownMessage([&] { deserializeFullTrace(bytes); }).find(want),
              std::string::npos);
    EXPECT_NE(thrownMessage([&] { TraceFileReader(path).readAll(); }).find(want),
              std::string::npos);
    EXPECT_NE(thrownMessage([&] {
                serve::TraceStreamFeeder feeder(core::ReductionConfig{});
                feeder.push(bytes.data(), bytes.size());
                feeder.finishStream();
              }).find(want),
              std::string::npos);
    std::remove(path.c_str());
  }
}

ReducedTrace smallReduced() {
  ReducedTrace rt;
  StringTable& names = rt.names;
  RankReduced rr;
  rr.rank = 0;
  MsgInfo m;
  m.peer = 1;
  m.tag = 3;
  m.bytes = 128;
  m.comm = 0;
  rr.stored.push_back(testing::makeSegment(names, "main.1", 0, 50,
                                           {{"do_work", OpKind::kCompute, 1, 20, {}},
                                            {"MPI_Send", OpKind::kSend, 21, 45, m}}));
  rr.execs = {{0, 100}, {0, 200}, {0, 330}};
  rt.ranks.push_back(std::move(rr));
  return rt;
}

/// Raw field values of a one-rank TRF1 holding a single enter record with a
/// message, before any narrowing to the in-memory types.
struct WideRecord {
  std::uint64_t rankId = 0;
  std::uint64_t nameId = 0;
  std::int64_t peer = 1;
  std::int64_t tag = 2;
  std::int64_t root = 3;
  std::int64_t comm = 4;
  std::uint64_t bytes = 5;
};

std::vector<std::uint8_t> encodeWide(const WideRecord& f) {
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  w.uvarint(1);
  w.str("MPI_Send");
  w.uvarint(1);  // one rank section
  w.uvarint(f.rankId);
  w.uvarint(1);  // one record
  w.u8(static_cast<std::uint8_t>(RecordKind::kEnter));
  w.uvarint(f.nameId);
  w.svarint(10);
  w.u8(static_cast<std::uint8_t>(OpKind::kSend));
  w.u8(1);
  w.svarint(f.peer);
  w.svarint(f.tag);
  w.svarint(f.root);
  w.svarint(f.comm);
  w.uvarint(f.bytes);
  return w.bytes();
}

/// The decoder's outcome for `bytes` pushed `chunk` bytes at a time:
/// the what() of the error, or "" when accepted.
std::string decodeError(const std::vector<std::uint8_t>& bytes, std::size_t chunk) {
  try {
    TraceBuilder builder;
    FullTraceDecoder decoder;
    decoder.attach(builder);
    for (std::size_t off = 0; off < bytes.size(); off += chunk)
      decoder.push(bytes.data() + off, std::min(chunk, bytes.size() - off));
    decoder.finish();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// A binary field wider than its in-memory type is malformed, as in the text
// reader: narrowing it would decode a different trace than the file holds.
TEST(TraceIO, BinaryReadersRejectOutOfRangeFields) {
  constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::pair<std::string, WideRecord>> bad = {
      {"rankId", {.rankId = std::uint64_t{1} << 32}},
      {"rankId", {.rankId = std::uint64_t{1} << 31}},
      {"nameId", {.nameId = kU32Max + 1}},
      {"peer", {.peer = kI32Max + 1}},
      {"peer", {.peer = std::int64_t{1} << 31}},
      {"tag", {.tag = kI32Min - 1}},
      {"root", {.root = std::numeric_limits<std::int64_t>::min()}},
      {"comm", {.comm = std::numeric_limits<std::int64_t>::max()}},
      {"bytes", {.bytes = (std::uint64_t{1} << 32) + 5}},
  };
  for (const auto& [field, rec] : bad) {
    SCOPED_TRACE(field);
    const std::vector<std::uint8_t> bytes = encodeWide(rec);
    const std::string want = "trace_io: " + field + " out of range";
    EXPECT_EQ(thrownMessage([&] { deserializeFullTrace(bytes); }), want);
    EXPECT_EQ(decodeError(bytes, 1), want);
  }

  // The extremes each type holds decode, and re-encode to the same bytes.
  const WideRecord edge{.rankId = kI32Max,
                        .nameId = 0,
                        .peer = kI32Min,
                        .tag = kI32Max,
                        .root = -1,
                        .comm = kI32Min,
                        .bytes = kU32Max};
  const std::vector<std::uint8_t> bytes = encodeWide(edge);
  const Trace trace = deserializeFullTrace(bytes);
  ASSERT_EQ(trace.numRanks(), 1);
  EXPECT_EQ(trace.rank(0).rank, kI32Max);
  EXPECT_EQ(trace.rank(0).records.at(0).msg.bytes, kU32Max);
  EXPECT_EQ(serializeFullTrace(trace), bytes);
  EXPECT_EQ(decodeError(bytes, 1), "");
}

TEST(TraceIO, ReducedAndMergedReadersRejectOutOfRangeFields) {
  constexpr std::uint64_t kWide = std::uint64_t{1} << 32;
  const ReducedTrace rt = smallReduced();
  // Writes TRR1 by hand, with `patch` choosing which field is too wide.
  const auto reduced = [&](const std::string& patch) {
    ByteWriter w;
    w.u32(codec::kReducedMagic);
    w.u8(codec::kVersion);
    codec::writeStringTable(w, rt.names);
    w.uvarint(1);
    w.uvarint(patch == "rankId" ? kWide : 0);
    w.uvarint(1);  // one stored segment, one event
    w.uvarint(patch == "context" ? kWide : 0);
    w.svarint(50);
    w.uvarint(1);
    w.uvarint(patch == "nameId" ? kWide : 1);
    w.u8(0);
    w.svarint(1);
    w.svarint(19);
    codec::writeMsgInfo(w, MsgInfo{});
    w.uvarint(1);  // one exec
    w.uvarint(patch == "representativeId" ? kWide : 0);
    w.svarint(100);
    return w.bytes();
  };
  EXPECT_NO_THROW(deserializeReducedTrace(reduced("")));
  for (const std::string field : {"rankId", "context", "nameId", "representativeId"}) {
    SCOPED_TRACE(field);
    EXPECT_EQ(thrownMessage([&] { deserializeReducedTrace(reduced(field)); }),
              "trace_io: " + field + " out of range");
  }

  const auto merged = [&](const std::string& patch) {
    ByteWriter w;
    w.u32(codec::kMergedMagic);
    w.u8(codec::kVersion);
    codec::writeStringTable(w, rt.names);
    w.uvarint(1);
    codec::writeSegment(w, rt.ranks[0].stored[0]);
    w.uvarint(1);
    w.uvarint(patch == "rankId" ? kWide : 0);
    w.uvarint(1);
    // 2^32 would narrow to id 0, a valid index into the one-entry store.
    w.uvarint(patch == "representativeId" ? kWide : 0);
    w.svarint(100);
    return w.bytes();
  };
  EXPECT_NO_THROW(deserializeMergedTrace(merged("")));
  for (const std::string field : {"rankId", "representativeId"}) {
    SCOPED_TRACE(field);
    EXPECT_EQ(thrownMessage([&] { deserializeMergedTrace(merged(field)); }),
              "trace_io: " + field + " out of range");
  }
}

TEST(TraceIO, ReducedTraceRoundTrips) {
  const ReducedTrace rt = smallReduced();
  const auto bytes = serializeReducedTrace(rt);
  const ReducedTrace back = deserializeReducedTrace(bytes);
  ASSERT_EQ(back.ranks.size(), 1u);
  ASSERT_EQ(back.ranks[0].stored.size(), 1u);
  EXPECT_EQ(back.ranks[0].stored[0].events, rt.ranks[0].stored[0].events);
  EXPECT_EQ(back.ranks[0].stored[0].end, rt.ranks[0].stored[0].end);
  EXPECT_EQ(back.ranks[0].execs, rt.ranks[0].execs);
}

TEST(TraceIO, ReducedTraceRejectsWrongMagic) {
  const auto bytes = serializeFullTrace(smallTrace());
  EXPECT_THROW(deserializeReducedTrace(bytes), std::runtime_error);
}

// The reduction premise: a reduced trace that stores one representative for
// many executions must be much smaller than the full trace.
TEST(TraceIO, ReducedFormatIsSmallerThanFullForRepeatedSegments) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  ReducedTrace rt;
  for (const auto& s : std::vector<std::string>{"main.1", "do_work"}) rt.names.intern(s);
  RankReduced rr;
  rr.rank = 0;
  const int iters = 200;
  for (int i = 0; i < iters; ++i) {
    const TimeUs base = 100 * i;
    w.segBegin("main.1", base);
    w.enter("do_work", OpKind::kCompute, base + 1);
    w.exit("do_work", base + 80);
    w.segEnd("main.1", base + 81);
    rr.execs.push_back({0, base});
  }
  rr.stored.push_back(testing::makeSegment(rt.names, "main.1", 0, 81,
                                           {{"do_work", OpKind::kCompute, 1, 80, {}}}));
  rt.ranks.push_back(std::move(rr));

  const std::size_t fullSize = fullTraceSize(trace);
  const std::size_t redSize = reducedTraceSize(rt);
  EXPECT_LT(redSize, fullSize / 3);
}

TEST(TraceIO, FileWriteReadRoundTrip) {
  const auto bytes = serializeFullTrace(smallTrace());
  const std::string path = ::testing::TempDir() + "/tracered_io_test.bin";
  writeFile(path, bytes);
  const auto back = readFile(path);
  EXPECT_EQ(back, bytes);
  std::remove(path.c_str());
}

TEST(TraceIO, ReadMissingFileThrows) {
  EXPECT_THROW(readFile("/nonexistent/definitely/missing.bin"), std::runtime_error);
}

}  // namespace
}  // namespace tracered
