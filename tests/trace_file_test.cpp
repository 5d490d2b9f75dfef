// Streaming trace file I/O: chunked reader/writer vs the whole-buffer
// (de)serializers, format auto-detection, and the bounded-memory guarantee.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <typeinfo>

#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "serve/feeder.hpp"
#include "trace/segmenter.hpp"
#include "trace/text_io.hpp"
#include "trace/trace_codec.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"
#include "util/bytebuf.hpp"

namespace tracered {
namespace {

std::string tmpPath(const std::string& name) { return ::testing::TempDir() + name; }

/// The exception message of `fn()`; fails the test if nothing is thrown.
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

void expectMessageContains(const std::string& msg, const std::string& want) {
  EXPECT_NE(msg.find(want), std::string::npos) << "message was: \"" << msg << '"';
}

void expectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.numRanks(), b.numRanks());
  for (Rank r = 0; r < a.numRanks(); ++r) {
    EXPECT_EQ(a.rank(r).rank, b.rank(r).rank);
    ASSERT_EQ(a.rank(r).records.size(), b.rank(r).records.size());
    EXPECT_EQ(a.rank(r).records, b.rank(r).records);
  }
  ASSERT_EQ(a.names().size(), b.names().size());
  for (NameId id = 0; id < a.names().size(); ++id)
    EXPECT_EQ(a.names().name(id), b.names().name(id));
}

/// Streams `path` through a ReductionSession the way `tracered reduce
/// --streaming` does and returns the serialized result.
std::vector<std::uint8_t> reduceStreaming(const std::string& path,
                                          const core::ReductionConfig& config,
                                          std::size_t chunkBytes) {
  TraceFileReader reader(path, chunkBytes);
  core::ReductionSession session(reader.names(), config);
  // No manual idle-rank registration: the reader announces every declared
  // rank through onRank, so this plain wiring must already match offline.
  reader.streamRecords(
      [&](Rank rank, const RawRecord& rec) { session.feed(rank, rec); },
      [&](Rank rank) { session.ensureRank(rank); });
  return serializeReducedTrace(session.finish().reduced);
}

// The satellite guarantee: on EVERY registered workload, the rank-at-a-time
// writer emits exactly serializeFullTrace's bytes, the chunked reader
// round-trips them exactly, and chunk-fed streaming reduction equals offline
// reduction of the same file, byte for byte.
TEST(TraceFile, ChunkedEqualsWholeFileOnEveryWorkload) {
  eval::WorkloadOptions opts;
  opts.scale = 0.05;
  for (const std::string& name : eval::allWorkloads()) {
    SCOPED_TRACE(name);
    const Trace trace = eval::runWorkload(name, opts);
    const std::string path = tmpPath("wf_" + name + ".trf");

    writeTraceFile(path, trace);
    EXPECT_EQ(readFile(path), serializeFullTrace(trace));

    TraceFileReader reader(path, /*chunkBytes=*/1024);
    EXPECT_EQ(reader.format(), TraceFileFormat::kFullBinary);
    EXPECT_EQ(reader.numRanks(), static_cast<std::size_t>(trace.numRanks()));
    expectSameTrace(reader.readAll(), trace);

    const core::ReductionConfig config = core::ReductionConfig::defaults(
        name == "dyn_load_balance" ? core::Method::kAvgWave : core::Method::kRelDiff);
    const auto offline = serializeReducedTrace(
        core::reduceTrace(segmentTrace(trace), trace.names(), config).reduced);
    EXPECT_EQ(reduceStreaming(path, config, 512), offline);
    std::remove(path.c_str());
  }
}

TEST(TraceFile, ReaderNeverBuffersTheWholeFile) {
  eval::WorkloadOptions opts;
  opts.scale = 1.0;
  const Trace trace = eval::runWorkload("NtoN_32", opts);
  const std::string path = tmpPath("bounded.trf");
  writeTraceFile(path, trace);
  const std::size_t fileBytes = readFile(path).size();
  ASSERT_GT(fileBytes, 100u * 1024);  // big enough for the bound to mean something

  TraceFileReader reader(path, /*chunkBytes=*/1024);
  std::size_t records = 0;
  reader.streamRecords([&](Rank, const RawRecord&) { ++records; });
  EXPECT_EQ(records, trace.totalRecords());
  // At most a few chunks ever resident — nowhere near the file size.
  EXPECT_LE(reader.maxBufferedBytes(), 8u * 1024);
  EXPECT_LT(reader.maxBufferedBytes() * 10, fileBytes);
  std::remove(path.c_str());
}

TEST(TraceFile, DetectsAllFormats) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string full = tmpPath("detect.trf");
  const std::string text = tmpPath("detect.txt");
  const std::string reduced = tmpPath("detect.trr");
  const std::string merged = tmpPath("detect.trm");
  writeTraceFile(full, trace);
  writeTraceFile(text, trace, TraceFileFormat::kText);
  const auto result = core::reduceTrace(segmentTrace(trace), trace.names(),
                                        core::ReductionConfig::defaults(core::Method::kRelDiff));
  writeFile(reduced, serializeReducedTrace(result.reduced));
  writeFile(merged, serializeMergedTrace(
                        core::mergeAcrossRanks(result.reduced, core::MergeOptions{}).merged));

  EXPECT_EQ(detectTraceFile(full), TraceFileFormat::kFullBinary);
  EXPECT_EQ(detectTraceFile(text), TraceFileFormat::kText);
  EXPECT_EQ(detectTraceFile(reduced), TraceFileFormat::kReducedBinary);
  EXPECT_EQ(detectTraceFile(merged), TraceFileFormat::kMergedBinary);

  const std::string garbage = tmpPath("detect.bin");
  writeFile(garbage, {0xde, 0xad, 0xbe, 0xef, 0x00});
  EXPECT_THROW(detectTraceFile(garbage), std::runtime_error);
  EXPECT_THROW(detectTraceFile(tmpPath("does_not_exist.trf")), std::runtime_error);

  // The streaming reader handles FULL traces; reduced and merged files are
  // rejected at open with a pointer at the right API.
  EXPECT_THROW(TraceFileReader{reduced}, std::runtime_error);
  EXPECT_THROW(TraceFileReader{merged}, std::runtime_error);

  for (const auto& p : {full, text, reduced, merged, garbage}) std::remove(p.c_str());
}

TEST(TraceFile, TruncatedBinaryThrows) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  auto bytes = serializeFullTrace(trace);
  bytes.resize(bytes.size() / 2);
  const std::string path = tmpPath("trunc.trf");
  writeFile(path, bytes);
  TraceFileReader reader(path, 256);
  EXPECT_ANY_THROW(reader.streamRecords([](Rank, const RawRecord&) {}));
  std::remove(path.c_str());
}

// The malformed-vs-truncated contract, pinned by message: std::out_of_range
// means "ran off the end — more bytes might complete this" (the incremental
// readers wait on it); std::runtime_error means "no suffix can make this
// valid" (rejected the moment it is read).
TEST(TraceFile, MalformedBinaryInputsNamePointedErrors) {
  // A varint cut off mid-continuation is truncation.
  const std::uint8_t cut[] = {0x80};
  expectMessageContains(thrownMessage([&] {
                          ByteReader r(cut, sizeof cut);
                          r.uvarint();
                        }),
                        "truncated input");

  // An overflowing varint can never become valid with more bytes.
  const std::vector<std::uint8_t> overlong(10, 0xff);
  expectMessageContains(thrownMessage([&] {
                          ByteReader r(overlong.data(), overlong.size());
                          r.uvarint();
                        }),
                        "uvarint overflows 64 bits");

  // A string declaring a terabyte length with one byte behind it is rejected
  // as truncation before any allocation happens.
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  w.uvarint(1);            // one string...
  w.uvarint(1ull << 40);   // ...claiming a terabyte length
  w.u8('x');
  const std::vector<std::uint8_t> bytes = w.bytes();
  EXPECT_THROW(deserializeFullTrace(bytes), std::out_of_range);
}

TEST(TraceFile, OversizedDeclaredCountsAreTruncationNotAllocation) {
  // TRM1 declaring 2^62 shared-store segments with no bytes behind them:
  // the reader must fail as truncation after decoding what is actually
  // there — never std::bad_alloc from trusting the count
  // (codec::reserveHint caps the pre-allocation).
  ByteWriter w;
  w.u32(codec::kMergedMagic);
  w.u8(codec::kVersion);
  w.uvarint(0);            // empty string table
  w.uvarint(1ull << 62);   // hostile shared-store count
  const std::vector<std::uint8_t> bytes = w.bytes();
  EXPECT_THROW(deserializeMergedTrace(bytes), std::out_of_range);
}

TEST(TraceFile, TextDeclaredRanksCapIsEnforced) {
  // Readers materialize state per DECLARED rank, so the parser rejects a
  // hostile count up front...
  TextTraceParser parser;
  EXPECT_FALSE(parser.feedLine("# tracered text trace v1"));
  expectMessageContains(thrownMessage([&] { parser.feedLine("ranks 2000000000"); }),
                        "exceeds the text format's maximum of 1048576");

  // ...the cap itself is legal...
  TextTraceParser atCap;
  EXPECT_FALSE(atCap.feedLine("ranks 1048576"));
  EXPECT_EQ(atCap.declaredRanks(), kMaxTextDeclaredRanks);

  // ...and the writer refuses to emit a header no reader would accept.
  std::ostringstream os;
  const StringTable names;
  expectMessageContains(
      thrownMessage([&] { writeTextHeader(os, names, kMaxTextDeclaredRanks + 1); }),
      "use the binary format (TRF1)");
}

TEST(TraceFile, TextStreamingMatchesTraceFromText) {
  const Trace trace = eval::runWorkload("late_broadcast", {0.05, 42});
  const std::string textPath = tmpPath("stream.txt");
  writeTraceFile(textPath, trace, TraceFileFormat::kText);

  TraceFileReader reader(textPath);
  EXPECT_EQ(reader.format(), TraceFileFormat::kText);
  expectSameTrace(reader.readAll(), traceFromText(traceToText(trace)));
  std::remove(textPath.c_str());
}

TEST(TraceFile, TextDeclaredButIdleRanksAppear) {
  const std::string path = tmpPath("idle.txt");
  {
    std::ofstream f(path);
    f << "# tracered text trace v1\nranks 3\nstring 0 main.1\n"
      << "rank 1\nB 10 0\nE 20 0\n";
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.numRanks(), 3u);
  const Trace back = reader.readAll();
  ASSERT_EQ(back.numRanks(), 3);
  EXPECT_TRUE(back.rank(0).records.empty());
  EXPECT_EQ(back.rank(1).records.size(), 2u);

  // Streaming reduction wired straight to feed/ensureRank must include the
  // idle ranks too — the reader, not the caller, announces the declared set.
  const auto config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  const auto streamed = reduceStreaming(path, config, 64);
  core::ReductionSession offline(back.names(), config);
  EXPECT_EQ(streamed, serializeReducedTrace(offline.reduce(segmentTrace(back)).reduced));

  std::remove(path.c_str());
}

TEST(TraceFile, TextRevisitedRankSectionsReduceIdentically) {
  // Sections may revisit a rank; record order per rank is file order, so
  // streaming reduction still equals offline reduction of the parsed trace.
  const std::string path = tmpPath("revisit.txt");
  {
    std::ofstream f(path);
    f << "# tracered text trace v1\nranks 2\nstring 0 main.1\nstring 1 do_work\n";
    f << "rank 0\nB 0 0\n> 1 1 0\n< 9 1\nE 10 0\n";
    f << "rank 1\nB 0 0\n> 1 1 0\n< 8 1\nE 10 0\n";
    f << "rank 0\nB 20 0\n> 21 1 0\n< 29 1\nE 30 0\n";
  }
  const core::ReductionConfig config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  const Trace parsed = TraceFileReader(path).readAll();
  const auto offline = serializeReducedTrace(
      core::reduceTrace(segmentTrace(parsed), parsed.names(), config).reduced);
  EXPECT_EQ(reduceStreaming(path, config, 64), offline);
  std::remove(path.c_str());
}

TEST(TraceFile, ReaderIsSinglePass) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string path = tmpPath("once.trf");
  writeTraceFile(path, trace);
  TraceFileReader reader(path);
  reader.streamRecords([](Rank, const RawRecord&) {});
  EXPECT_THROW(reader.streamRecords([](Rank, const RawRecord&) {}), std::logic_error);
  std::remove(path.c_str());
}

TEST(TraceFile, WriterValidatesRankCount) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string path = tmpPath("short.trf");
  {
    TraceFileWriter w(path, trace.names(), 2);
    w.writeRank(trace.rank(0));
    EXPECT_THROW(w.finish(), std::runtime_error);
  }
  {
    TraceFileWriter w(path, trace.names(), 1);
    w.writeRank(trace.rank(0));
    EXPECT_THROW(w.writeRank(trace.rank(1)), std::logic_error);
  }
  EXPECT_THROW(TraceFileWriter(path, trace.names(), 1, TraceFileFormat::kReducedBinary),
               std::invalid_argument);
  {
    // Text cannot express non-dense rank ids; the writer must fail at write
    // time rather than emit a file no reader accepts.
    TraceFileWriter w(path, trace.names(), 2, TraceFileFormat::kText);
    RankTrace sparse;
    sparse.rank = 5;
    EXPECT_THROW(w.writeRank(sparse), std::runtime_error);
  }
  {
    // Binary sections must have strictly ascending rank ids (the streaming
    // reader's rule); the writer enforces it at write time too.
    TraceFileWriter w(path, trace.names(), 2);
    w.writeRank(trace.rank(1));
    EXPECT_THROW(w.writeRank(trace.rank(0)), std::runtime_error);
  }
  {
    // ... including the first section: a negative id would be a file the
    // streaming reader always rejects.
    TraceFileWriter w(path, trace.names(), 1);
    RankTrace negative;
    negative.rank = -1;
    EXPECT_THROW(w.writeRank(negative), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(TraceFile, ByteReaderRejectsOverflowingVarint) {
  // >= 64 significant bits is malformed per FORMATS.md: a 10th byte carrying
  // more than bit 63 must be rejected, not silently truncated.
  // The type matters: std::runtime_error (malformed — no amount of further
  // bytes can fix it), NOT std::out_of_range (truncated — incremental
  // parsers wait for more input on that type).
  const std::string overflow("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10);
  ByteReader bor(reinterpret_cast<const std::uint8_t*>(overflow.data()), overflow.size());
  try {
    bor.uvarint();
    FAIL() << "overflowing uvarint must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "uvarint overflows 64 bits");
  }
}

// ---- push-boundary differential --------------------------------------------
// Every full-trace surface is a driver over the one push decoder, so the
// whole-buffer, chunked-file and streamed decodes must accept the same bytes
// and yield the same trace, wherever the push boundaries fall.

constexpr std::size_t kReaderChunks[] = {1, 7, 256, 64 * 1024};
constexpr std::size_t kFeederChunks[] = {1, 7, 4096};

/// What `decode()` yields, or nullopt when it rejects the input with one of
/// the documented exception types.
template <class Fn>
auto acceptedBy(Fn&& decode) -> std::optional<decltype(decode())> {
  try {
    return decode();
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {  // includes std::out_of_range
  }
  return std::nullopt;
}

std::vector<std::uint8_t> feedReduced(const std::vector<std::uint8_t>& bytes,
                                      std::size_t chunk,
                                      const core::ReductionConfig& config) {
  serve::TraceStreamFeeder feeder(config);
  for (std::size_t off = 0; off < bytes.size(); off += chunk)
    feeder.push(bytes.data() + off, std::min(chunk, bytes.size() - off));
  return serializeReducedTrace(feeder.finishStream().reduced);
}

TEST(TraceFile, EverySurfaceDecodesEveryPushSplitIdentically) {
  const core::ReductionConfig config = core::ReductionConfig::fromName("avgWave@0.2");
  for (const std::string name : {"late_sender", "NtoN_32", "dyn_load_balance"}) {
    const Trace trace = eval::runWorkload(name, {0.05, 42});
    for (const TraceFileFormat format : {TraceFileFormat::kFullBinary, TraceFileFormat::kText}) {
      SCOPED_TRACE(name + " / " + formatName(format));
      const std::string path = tmpPath("split_" + name + ".trace");
      writeTraceFile(path, trace, format);
      const std::vector<std::uint8_t> bytes = readFile(path);

      const Trace whole = deserializeFullTrace(bytes);
      expectSameTrace(whole, trace);
      for (const std::size_t chunk : kReaderChunks) {
        SCOPED_TRACE("reader chunk " + std::to_string(chunk));
        expectSameTrace(TraceFileReader(path, chunk).readAll(), whole);
      }
      const std::vector<std::uint8_t> offline = serializeReducedTrace(
          core::ReductionSession(whole.names(), config).reduce(segmentTrace(whole)).reduced);
      for (const std::size_t chunk : kFeederChunks)
        EXPECT_EQ(feedReduced(bytes, chunk, config), offline) << "feeder chunk " << chunk;
      std::remove(path.c_str());
    }
  }
}

/// How a decode ended: the dynamic type and what() of what it threw, or an
/// empty type name when it returned.
struct Outcome {
  std::string type;
  std::string what;
};

template <class Fn>
Outcome outcomeOf(Fn&& decode) {
  try {
    decode();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {};
}

/// True when `o`, from a surface with a bounded parse window, is the
/// window's rejection of a length the unbounded whole-buffer decode
/// (`whole`) waited on until the input ended truncated.
bool windowRejection(const Outcome& whole, const Outcome& o) {
  return whole.type == typeid(std::out_of_range).name() &&
         o.type == typeid(std::runtime_error).name() &&
         o.what.find("-byte parse window") != std::string::npos;
}

TEST(TraceFile, EverySurfaceAgreesOnTheRegressionCorpus) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(TRACERED_SOURCE_DIR) / "fuzz/corpus/regressions/trace_file";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  const core::ReductionConfig config = core::ReductionConfig::fromName("avgWave@0.2");
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    const std::vector<std::uint8_t> bytes = readFile(file.string());
    const auto whole = acceptedBy([&] { return deserializeFullTrace(bytes); });
    const Outcome wholeOutcome = outcomeOf([&] { deserializeFullTrace(bytes); });
    for (const std::size_t chunk : kReaderChunks) {
      SCOPED_TRACE("reader chunk " + std::to_string(chunk));
      const auto chunked =
          acceptedBy([&] { return TraceFileReader(file.string(), chunk).readAll(); });
      ASSERT_EQ(chunked.has_value(), whole.has_value());
      if (whole) expectSameTrace(*chunked, *whole);
      // The same diagnostic, whichever part of the decoder met the bad byte;
      // a header error names the file.
      const Outcome o = outcomeOf([&] { TraceFileReader(file.string(), chunk).readAll(); });
      if (windowRejection(wholeOutcome, o)) continue;
      EXPECT_EQ(o.type, wholeOutcome.type);
      if (o.what != wholeOutcome.what) {
        EXPECT_EQ(o.what, "trace_file: '" + file.string() + "': " + wholeOutcome.what);
      }
    }
    for (const std::size_t chunk : kFeederChunks) {
      SCOPED_TRACE("feeder chunk " + std::to_string(chunk));
      EXPECT_EQ(acceptedBy([&] { return feedReduced(bytes, chunk, config); }).has_value(),
                whole.has_value());
      // The feeder reports a truncated stream as a runtime_error that quotes
      // the decoder's message; every other outcome is the decoder's own.
      const Outcome o = outcomeOf([&] { feedReduced(bytes, chunk, config); });
      if (windowRejection(wholeOutcome, o)) continue;
      if (wholeOutcome.type == typeid(std::out_of_range).name()) {
        EXPECT_EQ(o.type, typeid(std::runtime_error).name());
        EXPECT_EQ(o.what.rfind("serve: truncated trace stream (" + wholeOutcome.what + ", ", 0),
                  0u)
            << o.what;
      } else {
        EXPECT_EQ(o.type, wholeOutcome.type);
        EXPECT_EQ(o.what, wholeOutcome.what);
      }
    }
  }
}

TEST(TraceFile, DesegmentRoundTripsSegmentation) {
  const Trace trace = eval::runWorkload("dyn_load_balance", {0.05, 42});
  const SegmentedTrace segmented = segmentTrace(trace);
  const Trace flat = desegmentTrace(segmented, trace.names());
  const SegmentedTrace again = segmentTrace(flat);
  ASSERT_EQ(again.ranks.size(), segmented.ranks.size());
  for (std::size_t r = 0; r < segmented.ranks.size(); ++r) {
    EXPECT_EQ(again.ranks[r].rank, segmented.ranks[r].rank);
    EXPECT_EQ(again.ranks[r], segmented.ranks[r]);
  }
}

TEST(TraceFile, StatsFromReducedMatchesReductionStats) {
  const Trace trace = eval::runWorkload("NtoN_32", {0.1, 42});
  const SegmentedTrace segmented = segmentTrace(trace);
  for (core::Method m : core::allMethods()) {
    SCOPED_TRACE(core::methodName(m));
    const auto result =
        core::reduceTrace(segmented, trace.names(), core::ReductionConfig::defaults(m));
    // Round-trip through the file format first: the CLI's eval path only
    // ever sees the file.
    const ReducedTrace back = deserializeReducedTrace(serializeReducedTrace(result.reduced));
    EXPECT_EQ(core::statsFromReduced(back), result.stats);
  }

  // More stored segments than execs is malformed (every stored segment has
  // at least its own exec): reject rather than wrap the subtraction.
  ReducedTrace malformed;
  RankReduced rr;
  rr.rank = 0;
  rr.stored.resize(2);
  rr.execs.resize(1);
  malformed.ranks.push_back(std::move(rr));
  EXPECT_THROW(core::statsFromReduced(malformed), std::runtime_error);
}

// --- all-or-nothing output files ---------------------------------------

/// A fresh empty directory under the test temp dir, removed afterwards.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::path(::testing::TempDir()) /
             ("tracered_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  bool empty() const { return std::filesystem::is_empty(path); }
  std::string file(const std::string& name) const { return (path / name).string(); }

  std::filesystem::path path;
};

/// Runs `body` in a forked child limited to 4 KiB per file, with SIGXFSZ
/// ignored so an oversized write fails (EFBIG) instead of killing the
/// child. Returns the child's exit code: `body`'s result, or 99 if it threw.
int exitCodeUnderFileSizeLimit(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{4096, 4096};
    int code = ::setrlimit(RLIMIT_FSIZE, &limit) == 0 ? 98 : 97;
    if (code == 98) {
      try {
        code = body();
      } catch (...) {
        code = 99;
      }
    }
    std::_Exit(code);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// 0 if `fn()` throws std::runtime_error with exactly `message`, else 1.
int throwsExactly(const std::function<void()>& fn, const std::string& message) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what() == message ? 0 : 1;
  }
  return 1;
}

/// One rank of 2000 iterations: far more than 4 KiB once encoded.
Trace largeTrace() {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  for (int i = 0; i < 2000; ++i) {
    w.segBegin("main.1", 100 * i);
    w.enter("do_work", OpKind::kCompute, 100 * i + 1);
    w.exit("do_work", 100 * i + 50 + i % 13);
    w.segEnd("main.1", 100 * i + 90);
  }
  return trace;
}

TEST(AtomicOutput, WriteFileReplacesTheTargetWhole) {
  const ScratchDir dir("replace");
  const std::string target = dir.file("out.trr");
  writeFile(target, std::vector<std::uint8_t>(10000, 0x11));
  writeFile(target, {1, 2, 3});
  EXPECT_EQ(readFile(target), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path),
                          std::filesystem::directory_iterator()),
            1);  // no temp left beside it
}

// What a rename would replace rather than write through is written in
// place: a symlink keeps its link, a pipe receives the bytes.
TEST(AtomicOutput, KeepsSymlinksAndWritesIntoPipes) {
  const ScratchDir dir("special");
  const std::string file = dir.file("real.trr");
  const std::string link = dir.file("link.trr");
  writeFile(file, {1});
  std::filesystem::create_symlink(file, link);
  writeFile(link, {2, 3});
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(readFile(file), (std::vector<std::uint8_t>{2, 3}));

  const std::string fifo = dir.file("pipe");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // A non-blocking reader first, so the writer's open does not wait.
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  writeFile(fifo, {4, 5, 6});
  std::uint8_t received[8] = {};
  EXPECT_EQ(::read(reader, received, sizeof received), 3);
  ::close(reader);
  EXPECT_EQ(received[2], 6);
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path),
                          std::filesystem::directory_iterator()),
            3);  // no temp left beside them
}

TEST(AtomicOutput, UnwritableDirectoryNamesThePathAndLeavesNothing) {
  const ScratchDir dir("unwritable");
  const std::string target = dir.file("missing/out.trr");
  EXPECT_EQ(thrownMessage([&] { writeFile(target, {1, 2, 3}); }),
            "trace_io: cannot open for write: " + target);
  const Trace trace = largeTrace();
  EXPECT_EQ(thrownMessage([&] { TraceFileWriter w(target, trace.names(), 1); }),
            "trace_file: cannot open for write: " + target);
  EXPECT_TRUE(dir.empty());

  // A directory without write permission (root writes regardless).
  if (::geteuid() != 0) {
    std::filesystem::permissions(dir.path, std::filesystem::perms::owner_read |
                                               std::filesystem::perms::owner_exec);
    const std::string denied = dir.file("out.trr");
    EXPECT_EQ(thrownMessage([&] { writeFile(denied, {1, 2, 3}); }),
              "trace_io: cannot open for write: " + denied);
    std::filesystem::permissions(dir.path, std::filesystem::perms::owner_all);
    EXPECT_TRUE(dir.empty());
  }
}

TEST(AtomicOutput, WriteFileFailingMidWriteLeavesNeitherTargetNorTemp) {
  const ScratchDir dir("midwrite");
  const std::string target = dir.file("out.trr");
  EXPECT_EQ(exitCodeUnderFileSizeLimit([&] {
              return throwsExactly(
                  [&] { writeFile(target, std::vector<std::uint8_t>(1 << 20, 0xab)); },
                  "trace_io: write failed: " + target);
            }),
            0);
  EXPECT_TRUE(dir.empty());
}

TEST(AtomicOutput, TraceFileWriterFailingMidWriteLeavesNeitherTargetNorTemp) {
  const ScratchDir dir("writer_midwrite");
  const std::string target = dir.file("out.trf");
  const Trace trace = largeTrace();
  EXPECT_EQ(exitCodeUnderFileSizeLimit([&] {
              return throwsExactly(
                  [&] {
                    TraceFileWriter w(target, trace.names(), 1);
                    w.writeRank(trace.rank(0));
                    w.finish();
                  },
                  "trace_file: write failed: " + target);
            }),
            0);
  EXPECT_TRUE(dir.empty());
}

TEST(AtomicOutput, TraceFileWriterPublishesOnlyOnFinish) {
  const ScratchDir dir("writer_finish");
  const std::string target = dir.file("out.trf");
  const Trace trace = largeTrace();
  {
    TraceFileWriter abandoned(target, trace.names(), 1);
    abandoned.writeRank(trace.rank(0));
    EXPECT_FALSE(std::filesystem::exists(target));
  }
  EXPECT_TRUE(dir.empty());
  {
    TraceFileWriter incomplete(target, trace.names(), 2);
    incomplete.writeRank(trace.rank(0));
    EXPECT_THROW(incomplete.finish(), std::runtime_error);
  }
  EXPECT_TRUE(dir.empty());

  TraceFileWriter w(target, trace.names(), 1);
  w.writeRank(trace.rank(0));
  EXPECT_FALSE(std::filesystem::exists(target));
  w.finish();
  EXPECT_EQ(readFile(target), serializeFullTrace(trace));
}

}  // namespace
}  // namespace tracered
