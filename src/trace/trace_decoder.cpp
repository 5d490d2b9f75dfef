#include "trace/trace_decoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "trace/trace_codec.hpp"
#include "util/bytebuf.hpp"

namespace tracered {

namespace {

/// First whitespace-delimited token of `[p, p + n)`, split on the C-locale
/// isspace set exactly like `istream >> token`.
std::string_view firstToken(const std::uint8_t* p, std::size_t n) {
  const auto space = [](std::uint8_t c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  std::size_t i = 0;
  while (i < n && space(p[i])) ++i;
  std::size_t j = i;
  while (j < n && !space(p[j])) ++j;
  return {reinterpret_cast<const char*>(p + i), j - i};
}

[[noreturn]] void truncated() { throw std::out_of_range("trace_io: truncated full trace"); }

}  // namespace

std::optional<TraceFileFormat> sniffTraceFormat(const std::uint8_t* data, std::size_t n,
                                                bool atEnd) {
  constexpr std::pair<std::uint32_t, TraceFileFormat> kMagics[] = {
      {codec::kFullMagic, TraceFileFormat::kFullBinary},
      {codec::kReducedMagic, TraceFileFormat::kReducedBinary},
      {codec::kMergedMagic, TraceFileFormat::kMergedBinary}};
  // The little-endian u32 prefix against the codec's magics (the single
  // definition of them); fewer than 4 bytes may still be a magic's prefix.
  const std::size_t have = std::min<std::size_t>(n, 4);
  std::uint32_t prefix = 0;
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < have; ++i) {
    prefix |= std::uint32_t{data[i]} << (8 * i);
    mask |= 0xffu << (8 * i);
  }
  for (const auto& [magic, format] : kMagics)
    if ((magic & mask) == prefix) return have == 4 ? std::optional(format) : std::nullopt;

  // Text iff the first token is a comment or a v1 directive. It is decided
  // once whitespace ends it inside the sniff window, or by the end of input.
  const std::size_t window = std::min(n, kSniffBytes);
  const std::string_view tok = firstToken(data, window);
  const bool decided = tok.data() + tok.size() < reinterpret_cast<const char*>(data + window) ||
                       (atEnd && n < kSniffBytes);
  if (!decided && n < kSniffBytes) return std::nullopt;
  if (decided && !tok.empty() &&
      (tok[0] == '#' || tok == "ranks" || tok == "string" || tok == "rank" || tok == "B" ||
       tok == "E" || tok == ">" || tok == "<"))
    return TraceFileFormat::kText;
  throw std::runtime_error("trace: unrecognized trace format");
}

void TraceBuilder::header(TraceFileFormat format, const StringTable& names,
                          std::size_t numRanks) {
  names_ = &names;
  denseIds_ = format == TraceFileFormat::kText;
  if (denseIds_)
    for (std::size_t r = 0; r < numRanks; ++r) trace_.addRank();
}

std::vector<RawRecord>& TraceBuilder::section(Rank rank, std::uint64_t declaredRecords) {
  if (denseIds_) return trace_.rank(rank).records;
  RankTrace& rt = trace_.addRank();
  rt.rank = rank;
  rt.records.reserve(codec::reserveHint(declaredRecords));
  return rt.records;
}

Trace TraceBuilder::take() {
  if (names_ != nullptr)
    for (const auto& s : names_->all()) trace_.names().intern(s);
  return std::move(trace_);
}

FullTraceDecoder::FullTraceDecoder(std::size_t tailLimit) : tailLimit_(tailLimit) {}

const StringTable& FullTraceDecoder::names() const {
  return format_ == TraceFileFormat::kText ? text_.names() : binNames_;
}

std::size_t FullTraceDecoder::numRanks() const {
  return format_ == TraceFileFormat::kText
             ? static_cast<std::size_t>(std::max(text_.declaredRanks(), 0))
             : static_cast<std::size_t>(numRanks_);
}

void FullTraceDecoder::attach(FullTraceSink& sink) {
  if (sink_ != nullptr) throw std::logic_error("trace: decoder already has a sink");
  sink_ = &sink;
  decodeTail(ended_);
  if (ended_) complete();
}

void FullTraceDecoder::push(const std::uint8_t* data, std::size_t n) {
  if (ended_) throw std::logic_error("trace: push after finish");
  std::size_t off = 0;
  // A non-empty tail is the start of an item straddling two pushes. Copy
  // just enough new bytes (doubling) to finish it; once the decode gets past
  // the old tail, the rest is decoded in place from `data`.
  for (std::size_t take = 64; !tail_.empty() && off < n; take *= 2) {
    take = std::min(n - off, std::max(take, tail_.size()));
    tail_.insert(tail_.end(), data + off, data + off + take);
    off += take;
    tailHighWater_ = std::max(tailHighWater_, tail_.size());
    const std::size_t left = tail_.size() - decode(tail_.data(), tail_.size(), false);
    if (left <= take) {  // all undecoded bytes are the caller's: go in place
      off -= left;
      tail_.clear();
    } else {
      tail_.erase(tail_.begin(), tail_.end() - static_cast<std::ptrdiff_t>(left));
    }
  }
  if (off < n) {
    const std::size_t used = decode(data + off, n - off, false);
    tail_.assign(data + off + used, data + n);
    tailHighWater_ = std::max(tailHighWater_, tail_.size());
  }
  if (tail_.size() > tailLimit_)
    throw std::runtime_error("trace: a single record, string or line exceeds the " +
                             std::to_string(tailLimit_) +
                             "-byte parse window (malformed or unsupported trace)");
}

void FullTraceDecoder::finish() {
  if (ended_) throw std::logic_error("trace: finish called twice");
  ended_ = true;
  decodeTail(/*atEnd=*/true);
  if (!format_) truncated();  // empty input, or a magic's strict prefix
  if (sink_ != nullptr) {
    complete();
  } else if (!headerDone_) {
    if (format_ != TraceFileFormat::kText) truncated();
    text_.finish();  // throws: missing 'ranks' header
    headerDone_ = true;
  }
}

void FullTraceDecoder::decodeTail(bool atEnd) {
  const std::size_t used = decode(tail_.data(), tail_.size(), atEnd);
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(used));
}

std::size_t FullTraceDecoder::decode(const std::uint8_t* p, std::size_t n, bool atEnd) {
  if (!format_) {
    format_ = sniffTraceFormat(p, n, atEnd);
    if (!format_) return 0;
    if (format_ == TraceFileFormat::kReducedBinary)
      throw std::runtime_error(
          "trace: input is already a reduced trace (TRR1) where a full trace is expected; "
          "'tracered convert --reconstruct' turns it into an approximated full trace");
    if (format_ == TraceFileFormat::kMergedBinary)
      throw std::runtime_error(
          "trace: input is a cross-rank merged trace (TRM1) where a full trace is "
          "expected; read merged traces whole via deserializeMergedTrace");
  }
  const std::size_t used =
      format_ == TraceFileFormat::kText ? decodeText(p, n, atEnd) : decodeBinary(p, n);
  flush();
  return used;
}

std::size_t FullTraceDecoder::decodeBinary(const std::uint8_t* p, std::size_t n) {
  ByteReader r(p, n);
  std::size_t done = 0;  // end of the last complete item
  while (bin_ != Bin::kDone && (bin_ != Bin::kSection || sink_ != nullptr)) {
    bool sectionRead = false;
    Rank rank = 0;
    std::uint64_t count = 0;
    // Only ByteReader calls run inside the try: its std::out_of_range means
    // "incomplete, wait for the next push", while a sink's exceptions must
    // propagate untouched.
    try {
      switch (bin_) {
        case Bin::kHeader:
          codec::readFullHeader(r);
          bin_ = Bin::kStringCount;
          break;
        case Bin::kStringCount:
          stringsLeft_ = r.uvarint();
          bin_ = stringsLeft_ == 0 ? Bin::kNumRanks : Bin::kStrings;
          break;
        case Bin::kStrings: {
          // A declared length beyond the window can never fit: reject it now
          // instead of buffering the window full first.
          ByteReader probe = r;
          if (probe.uvarint() > tailLimit_)
            throw std::runtime_error("trace: a string length exceeds the " +
                                     std::to_string(tailLimit_) + "-byte parse window");
          binNames_.intern(r.str());
          if (--stringsLeft_ == 0) bin_ = Bin::kNumRanks;
          break;
        }
        case Bin::kNumRanks:
          numRanks_ = r.uvarint();
          headerDone_ = true;
          bin_ = numRanks_ == 0 ? Bin::kDone : Bin::kSection;
          break;
        case Bin::kSection:
          rank = codec::narrow<Rank>(r.uvarint(), "rankId");
          count = r.uvarint();
          sectionRead = true;  // opened below, outside the try
          break;
        case Bin::kRecords: {
          // The hot loop: records go straight into the sink's vector, each
          // committed once it decoded completely. `more` runs before each
          // record and may stop the loop early.
          std::vector<RawRecord>& out = *records_;
          const auto readRecords = [&](auto& reader, auto more) {
            for (; recsLeft_ != 0 && more(); --recsLeft_) {
              TimeUs prev = prevTime_;
              out.push_back(codec::readRecord(reader, prev));
              prevTime_ = prev;
            }
          };
          // While a worst-case record fits in what is left of this push,
          // read without per-byte bounds checks: same layout, same checks,
          // same errors, and no record can be cut short.
          if (r.remaining() >= codec::kMaxRecordBytes) {
            const std::uint8_t* const last =
                r.cursor() + (r.remaining() - codec::kMaxRecordBytes);
            UncheckedByteReader fast(r.cursor());
            readRecords(fast, [&] { return fast.cursor() <= last; });
            r.skip(static_cast<std::size_t>(fast.cursor() - r.cursor()));
          }
          // The push's last bytes: checked, so a record cut by the push end
          // throws std::out_of_range and waits for the next push. `done`
          // marks the end of the last complete record.
          readRecords(r, [&] {
            done = r.position();
            return true;
          });
          bin_ = ++sectionsSeen_ == numRanks_ ? Bin::kDone : Bin::kSection;
          break;
        }
        case Bin::kDone:
          break;
      }
    } catch (const std::out_of_range&) {
      return done;
    }
    if (sectionRead) {
      // Ascending ids make streaming (rank-id-ordered) and offline (file-
      // ordered) reduction agree; every file the writers emit satisfies it.
      if (static_cast<std::int64_t>(rank) <= prevRank_)
        throw std::runtime_error("trace_io: rank entries out of ascending order");
      prevRank_ = rank;
      openSection(rank, count);
      recsLeft_ = count;
      prevTime_ = 0;
      if (count != 0)
        bin_ = Bin::kRecords;
      else if (++sectionsSeen_ == numRanks_)
        bin_ = Bin::kDone;
    }
    done = r.position();
  }
  if (bin_ == Bin::kDone && !r.atEnd())
    throw std::runtime_error("trace_io: trailing bytes in full trace");
  return done;
}

std::size_t FullTraceDecoder::decodeText(const std::uint8_t* p, std::size_t n, bool atEnd) {
  std::size_t done = 0;
  while (done < n) {
    const auto* nl = static_cast<const std::uint8_t*>(std::memchr(p + done, '\n', n - done));
    if (nl == nullptr && !atEnd) break;
    const std::size_t end = nl != nullptr ? static_cast<std::size_t>(nl - p) : n;
    // Without a sink, stop at the header's end: the first rank section.
    if (sink_ == nullptr && (headerDone_ || firstToken(p + done, end - done) == "rank")) {
      headerDone_ = true;
      break;
    }
    line_.assign(reinterpret_cast<const char*>(p + done), end - done);
    done = nl != nullptr ? end + 1 : n;
    const Rank before = text_.currentRank();
    if (text_.feedLine(line_))
      records_->push_back(text_.record());
    else if (text_.currentRank() != before)
      openSection(text_.currentRank(), 0);
  }
  return done;
}

void FullTraceDecoder::sendHeader() {
  if (headerSent_) return;
  headerSent_ = headerDone_ = true;
  announced_.assign(format_ == TraceFileFormat::kText ? numRanks() : 0, false);
  sink_->header(format_.value(), names(), numRanks());
}

void FullTraceDecoder::openSection(Rank rank, std::uint64_t declaredRecords) {
  flush();
  sendHeader();
  curRank_ = rank;
  if (format_ == TraceFileFormat::kText) announced_[static_cast<std::size_t>(rank)] = true;
  records_ = &sink_->section(rank, declaredRecords);
}

void FullTraceDecoder::flush() {
  if (records_ != nullptr) sink_->records(curRank_);
}

void FullTraceDecoder::complete() {
  if (format_ == TraceFileFormat::kText)
    text_.finish();  // throws: missing 'ranks' header
  else if (bin_ != Bin::kDone)
    truncated();
  sendHeader();
  // Text sections are optional per rank; announcing the declared-but-absent
  // ones gives every sink the rank set offline decoding has.
  for (std::size_t r = 0; r < announced_.size(); ++r)
    if (!announced_[r]) openSection(static_cast<Rank>(r), 0);
  flush();
}

}  // namespace tracered
