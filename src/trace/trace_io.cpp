#include "trace/trace_io.hpp"

#include <fstream>
#include <stdexcept>

#include "trace/trace_codec.hpp"
#include "trace/trace_decoder.hpp"
#include "util/atomic_file.hpp"
#include "util/bytebuf.hpp"

namespace tracered {

std::vector<std::uint8_t> serializeFullTrace(const Trace& trace) {
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  codec::writeStringTable(w, trace.names());
  w.uvarint(static_cast<std::uint64_t>(trace.numRanks()));
  for (Rank rk = 0; rk < trace.numRanks(); ++rk) {
    const RankTrace& rt = trace.rank(rk);
    w.uvarint(static_cast<std::uint64_t>(rt.rank));
    w.uvarint(rt.records.size());
    TimeUs prev = 0;
    for (const RawRecord& rec : rt.records) codec::writeRecord(w, rec, prev);
  }
  return w.bytes();
}

Trace deserializeFullTrace(const std::vector<std::uint8_t>& bytes) {
  TraceBuilder builder;
  FullTraceDecoder decoder;
  decoder.attach(builder);
  decoder.push(bytes.data(), bytes.size());
  decoder.finish();
  return builder.take();
}

std::vector<std::uint8_t> serializeReducedTrace(const ReducedTrace& reduced) {
  ByteWriter w;
  w.u32(codec::kReducedMagic);
  w.u8(codec::kVersion);
  codec::writeStringTable(w, reduced.names);
  w.uvarint(reduced.ranks.size());
  for (const RankReduced& rr : reduced.ranks) {
    w.uvarint(static_cast<std::uint64_t>(rr.rank));
    w.uvarint(rr.stored.size());
    for (const Segment& s : rr.stored) codec::writeSegment(w, s);
    w.uvarint(rr.execs.size());
    TimeUs prev = 0;
    for (const SegmentExec& e : rr.execs) {
      w.uvarint(e.id);
      w.svarint(codec::wrapSub(e.start, prev));
      prev = e.start;
    }
  }
  return w.bytes();
}

ReducedTrace deserializeReducedTrace(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.u32() != codec::kReducedMagic)
    throw std::runtime_error("trace_io: bad reduced-trace magic");
  if (r.u8() != codec::kVersion) throw std::runtime_error("trace_io: unsupported version");
  ReducedTrace out;
  out.names = codec::readStringTable(r);
  const std::uint64_t nRanks = r.uvarint();
  for (std::uint64_t i = 0; i < nRanks; ++i) {
    RankReduced rr;
    rr.rank = codec::narrow<Rank>(r.uvarint(), "rankId");
    const std::uint64_t nStored = r.uvarint();
    rr.stored.reserve(codec::reserveHint(nStored));
    for (std::uint64_t j = 0; j < nStored; ++j)
      rr.stored.push_back(codec::readSegment(r, rr.rank));
    const std::uint64_t nExecs = r.uvarint();
    rr.execs.reserve(codec::reserveHint(nExecs));
    TimeUs prev = 0;
    for (std::uint64_t j = 0; j < nExecs; ++j) {
      SegmentExec e;
      e.id = codec::narrow<SegmentId>(r.uvarint(), "representativeId");
      e.start = codec::wrapAdd(prev, r.svarint());
      prev = e.start;
      rr.execs.push_back(e);
    }
    out.ranks.push_back(std::move(rr));
  }
  if (!r.atEnd()) throw std::runtime_error("trace_io: trailing bytes in reduced trace");
  return out;
}

std::vector<std::uint8_t> serializeMergedTrace(const MergedReducedTrace& merged) {
  ByteWriter w;
  w.u32(codec::kMergedMagic);
  w.u8(codec::kVersion);
  codec::writeStringTable(w, merged.names);
  w.uvarint(merged.sharedStore.size());
  for (const Segment& s : merged.sharedStore) codec::writeSegment(w, s);
  w.uvarint(merged.execs.size());
  for (std::size_t r = 0; r < merged.execs.size(); ++r) {
    const auto& execs = merged.execs[r];
    // uvarint, matching serializeReducedTrace's rank-id encoding (ranks are
    // non-negative; svarint would zigzag-double every id). Rows without a
    // recorded rank id (hand-built traces) fall back to positional labels,
    // mirroring reconstructMerged.
    w.uvarint(static_cast<std::uint64_t>(
        r < merged.rankIds.size() ? merged.rankIds[r] : static_cast<Rank>(r)));
    w.uvarint(execs.size());
    TimeUs prev = 0;
    for (const SegmentExec& e : execs) {
      w.uvarint(e.id);
      w.svarint(codec::wrapSub(e.start, prev));
      prev = e.start;
    }
  }
  return w.bytes();
}

MergedReducedTrace deserializeMergedTrace(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.u32() != codec::kMergedMagic)
    throw std::runtime_error("trace_io: bad merged-trace magic");
  if (r.u8() != codec::kVersion) throw std::runtime_error("trace_io: unsupported version");
  MergedReducedTrace out;
  out.names = codec::readStringTable(r);
  const std::uint64_t nStore = r.uvarint();
  out.sharedStore.reserve(codec::reserveHint(nStore));
  for (std::uint64_t i = 0; i < nStore; ++i)
    out.sharedStore.push_back(codec::readSegment(r, /*rank=*/0));
  const std::uint64_t nRanks = r.uvarint();
  out.rankIds.reserve(codec::reserveHint(nRanks));
  out.execs.reserve(codec::reserveHint(nRanks));
  for (std::uint64_t i = 0; i < nRanks; ++i) {
    out.rankIds.push_back(codec::narrow<Rank>(r.uvarint(), "rankId"));
    const std::uint64_t nExecs = r.uvarint();
    std::vector<SegmentExec> execs;
    execs.reserve(codec::reserveHint(nExecs));
    TimeUs prev = 0;
    for (std::uint64_t j = 0; j < nExecs; ++j) {
      SegmentExec e;
      e.id = codec::narrow<SegmentId>(r.uvarint(), "representativeId");
      if (e.id >= out.sharedStore.size())
        throw std::runtime_error("trace_io: merged exec id out of range");
      e.start = codec::wrapAdd(prev, r.svarint());
      prev = e.start;
      execs.push_back(e);
    }
    out.execs.push_back(std::move(execs));
  }
  if (!r.atEnd()) throw std::runtime_error("trace_io: trailing bytes in merged trace");
  return out;
}

std::size_t fullTraceSize(const Trace& trace) { return serializeFullTrace(trace).size(); }

std::size_t reducedTraceSize(const ReducedTrace& reduced) {
  return serializeReducedTrace(reduced).size();
}

std::size_t mergedTraceSize(const MergedReducedTrace& merged) {
  return serializeMergedTrace(merged).size();
}

void writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  util::AtomicOutputFile f(path, "trace_io");
  f.stream().write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
  f.commit();
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("trace_io: cannot open for read: " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

}  // namespace tracered
