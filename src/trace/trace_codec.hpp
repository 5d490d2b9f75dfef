// Shared record-level codec for the TRF1/TRR1/TRM1 binary formats.
//
// These templates are the layouts' single definition (docs/FORMATS.md is the
// normative spec), instantiated over ByteWriter and ByteReader. The writers
// (serializeFullTrace, the rank-at-a-time TraceFileWriter, the TRR1/TRM1
// serializers) all encode through them. On the read side, full traces are
// decoded in exactly one place, FullTraceDecoder (trace_decoder.hpp), which
// every full-trace reader drives — so "streamed, chunked and whole-buffer
// decodes agree" is a structural guarantee rather than a test-only one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/event.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "util/bytebuf.hpp"
#include "util/time_types.hpp"

namespace tracered::codec {

inline constexpr std::uint32_t kFullMagic = 0x31465254;     // "TRF1"
inline constexpr std::uint32_t kReducedMagic = 0x31525254;  // "TRR1"
inline constexpr std::uint32_t kMergedMagic = 0x314d5254;   // "TRM1"
inline constexpr std::uint8_t kVersion = 1;

/// Pre-allocation guard for decoded element counts: a hostile length prefix
/// must cost bytes-proportional memory, not count-proportional. Counts below
/// the cap are trusted (one reserve, no growth); above it the vector grows
/// organically — each element still has to be decoded from real input bytes,
/// so a declared-but-absent 2^60 never allocates.
inline std::size_t reserveHint(std::uint64_t declared) {
  constexpr std::uint64_t kMaxTrustedCount = 1u << 16;
  return static_cast<std::size_t>(declared < kMaxTrustedCount ? declared
                                                              : kMaxTrustedCount);
}

/// The longest valid TRF1 record: kind, nameId, timeDelta, op, the msgInfo
/// presence byte, peer/tag/root/comm and bytes. A decoder with at least this
/// many bytes left can read one whole record without bounds checks.
inline constexpr std::size_t kMaxRecordBytes =
    1 + kMaxVarintBytes + kMaxVarintBytes + 1 + 1 + 4 * kMaxVarintBytes + kMaxVarintBytes;
static_assert(kMaxRecordBytes == 73);

[[noreturn]] inline void fieldOutOfRange(const char* field) {
  throw std::runtime_error(std::string("trace_io: ") + field + " out of range");
}

/// A decoded varint narrowed to its field's type (docs/FORMATS.md §0.1, §1):
/// a value the type cannot hold is malformed, never silently truncated — the
/// text reader rejects the same values.
template <class T, class V>
T narrow(V v, const char* field) {
  if (!std::in_range<T>(v)) fieldOutOfRange(field);
  return static_cast<T>(v);
}

/// Delta decoding over adversarial input can legally produce any i64 pair, so
/// the reconstruction arithmetic must not rely on the sum/difference staying
/// in range: signed overflow is UB (and aborts under -fsanitize=undefined).
/// Two's-complement wrapping via the unsigned domain is bit-identical to
/// plain +/- whenever the values are in range — i.e. for every trace our
/// writers produce — so golden corpora are unaffected.
inline TimeUs wrapAdd(TimeUs a, TimeUs b) {
  return static_cast<TimeUs>(static_cast<std::uint64_t>(a) +
                             static_cast<std::uint64_t>(b));
}

inline TimeUs wrapSub(TimeUs a, TimeUs b) {
  return static_cast<TimeUs>(static_cast<std::uint64_t>(a) -
                             static_cast<std::uint64_t>(b));
}

/// Decodes and validates the <magic, version> preamble of a full trace.
template <class R>
void readFullHeader(R& r) {
  if (r.u32() != kFullMagic) throw std::runtime_error("trace_io: bad full-trace magic");
  if (r.u8() != kVersion) throw std::runtime_error("trace_io: unsupported version");
}

inline bool msgIsEmpty(const MsgInfo& m) { return m == MsgInfo{}; }

template <class W>
void writeMsgInfo(W& w, const MsgInfo& m) {
  if (msgIsEmpty(m)) {
    w.u8(0);
    return;
  }
  w.u8(1);
  w.svarint(m.peer);
  w.svarint(m.tag);
  w.svarint(m.root);
  w.svarint(m.comm);
  w.uvarint(m.bytes);
}

// readMsgInfo and readRecord are forced inline: FullTraceDecoder's record
// loop calls them once per record, and an out-of-line call would keep the
// reader's cursor in memory instead of a register.
template <class R>
[[gnu::always_inline]] inline MsgInfo readMsgInfo(R& r) {
  MsgInfo m;
  const std::uint8_t present = r.u8();
  if (present == 0) return m;
  if (present != 1) throw std::runtime_error("trace_io: bad msg-present byte");
  m.peer = narrow<std::int32_t>(r.svarint(), "peer");
  m.tag = narrow<std::int32_t>(r.svarint(), "tag");
  m.root = narrow<std::int32_t>(r.svarint(), "root");
  m.comm = narrow<std::int32_t>(r.svarint(), "comm");
  m.bytes = narrow<std::uint32_t>(r.uvarint(), "bytes");
  return m;
}

template <class W>
void writeStringTable(W& w, const StringTable& names) {
  w.uvarint(names.size());
  for (const auto& s : names.all()) w.str(s);
}

template <class R>
StringTable readStringTable(R& r) {
  StringTable names;
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) names.intern(r.str());
  return names;
}

/// One raw record, time delta-encoded against `prev` (the previous record's
/// time in the same rank; callers reset `prev` to 0 at each rank boundary).
template <class W>
void writeRecord(W& w, const RawRecord& rec, TimeUs& prev) {
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.uvarint(rec.name);
  w.svarint(wrapSub(rec.time, prev));
  prev = rec.time;
  if (rec.kind == RecordKind::kEnter) {
    w.u8(static_cast<std::uint8_t>(rec.op));
    writeMsgInfo(w, rec.msg);
  }
}

template <class R>
[[gnu::always_inline]] inline RawRecord readRecord(R& r, TimeUs& prev) {
  RawRecord rec;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RecordKind::kSegEnd))
    throw std::runtime_error("trace_io: bad record kind");
  rec.kind = static_cast<RecordKind>(kind);
  rec.name = narrow<NameId>(r.uvarint(), "nameId");
  rec.time = wrapAdd(prev, r.svarint());
  prev = rec.time;
  if (rec.kind == RecordKind::kEnter) {
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(OpKind::kOther))
      throw std::runtime_error("trace_io: bad op kind");
    rec.op = static_cast<OpKind>(op);
    rec.msg = readMsgInfo(r);
  }
  return rec;
}

/// One stored representative segment (TRR1): context, relative end, events
/// with intra-segment delta encoding.
template <class W>
void writeSegment(W& w, const Segment& s) {
  w.uvarint(s.context);
  w.svarint(s.end);
  w.uvarint(s.events.size());
  TimeUs prev = 0;
  for (const EventInterval& e : s.events) {
    w.uvarint(e.name);
    w.u8(static_cast<std::uint8_t>(e.op));
    w.svarint(wrapSub(e.start, prev));
    w.svarint(wrapSub(e.end, e.start));
    prev = e.end;
    writeMsgInfo(w, e.msg);
  }
}

template <class R>
Segment readSegment(R& r, Rank rank) {
  Segment s;
  s.rank = rank;
  s.context = narrow<NameId>(r.uvarint(), "context");
  s.end = r.svarint();
  const std::uint64_t n = r.uvarint();
  s.events.reserve(reserveHint(n));
  TimeUs prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    EventInterval e;
    e.name = narrow<NameId>(r.uvarint(), "nameId");
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(OpKind::kOther))
      throw std::runtime_error("trace_io: bad op kind");
    e.op = static_cast<OpKind>(op);
    e.start = wrapAdd(prev, r.svarint());
    e.end = wrapAdd(e.start, r.svarint());
    prev = e.end;
    e.msg = readMsgInfo(r);
    s.events.push_back(e);
  }
  return s;
}

}  // namespace tracered::codec
