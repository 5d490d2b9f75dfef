#include "trace/segment.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace tracered {

bool SegmentView::compatible(const SegmentView& other) const {
  if (context != other.context) return false;
  if (events.size() != other.events.size()) return false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].sameIdentity(other.events[i])) return false;
  }
  return true;
}

namespace {

// Odd multipliers (the splitmix64 / murmur3 constants): multiplying by one is
// a bijection on 64-bit words.
constexpr std::uint64_t kMulA = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kMulB = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kMulC = 0x94d049bb133111ebull;
constexpr std::uint64_t kMulD = 0xff51afd7ed558ccdull;
constexpr std::uint64_t kMulE = 0xc4ceb9fe1a85ec53ull;

std::uint64_t lo32(std::int32_t v) { return static_cast<std::uint32_t>(v); }

/// One event's identity folded into a word. Each field lands in its own
/// packed word and each word gets its own odd multiplier, so changing any
/// one field always changes the result; the multiplies are independent of
/// each other and of the running hash.
std::uint64_t identityWord(const EventInterval& e) {
  const std::uint64_t nameOp = e.name | (static_cast<std::uint64_t>(e.op) << 32);
  const std::uint64_t peerTag = lo32(e.msg.peer) | (lo32(e.msg.tag) << 32);
  const std::uint64_t rootComm = lo32(e.msg.root) | (lo32(e.msg.comm) << 32);
  return (nameOp * kMulA) ^ (peerTag * kMulB) ^ (rootComm * kMulC) ^ (e.msg.bytes * kMulD);
}

/// murmur3's 64-bit finalizer: a bijection that spreads every input bit.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= kMulD;
  h ^= h >> 33;
  h *= kMulE;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t SegmentView::signature() const {
  // A polynomial over the events' identity words: the dependent chain is one
  // add and one multiply per event. Before the finalizer the hash is
  // h0 * M^n + sum_i w_i * M^(n-i) (mod 2^64) with M odd, so changing one
  // word, or the context, always changes it; reordering events moves words
  // to other powers of M.
  std::uint64_t h = (context ^ (static_cast<std::uint64_t>(events.size()) << 32)) * kMulB;
  for (const EventInterval& e : events) h = (h + identityWord(e)) * kMulA;
  return fmix64(h);
}

std::vector<double> distanceVector(const SegmentView& s) {
  std::vector<double> v(1 + 2 * s.events.size());
  writeDistanceVector(s, v);
  return v;
}

void writeDistanceVector(const SegmentView& s, std::span<double> out) {
  assert(out.size() == 1 + 2 * s.events.size());
  std::size_t i = 0;
  out[i++] = static_cast<double>(s.end);
  for (const auto& e : s.events) {
    out[i++] = static_cast<double>(e.start);
    out[i++] = static_cast<double>(e.end);
  }
}

std::vector<double> waveletVector(const SegmentView& s) {
  std::vector<double> v(2 + 2 * s.events.size());
  writeWaveletVector(s, v);
  return v;
}

void writeWaveletVector(const SegmentView& s, std::span<double> out) {
  assert(out.size() >= 2 + 2 * s.events.size());
  std::size_t i = 0;
  out[i++] = 0.0;  // relative segment start
  for (const auto& e : s.events) {
    out[i++] = static_cast<double>(e.start);
    out[i++] = static_cast<double>(e.end);
  }
  out[i++] = static_cast<double>(s.end);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(i), out.end(), 0.0);
}

bool operator==(const SegmentView& a, const SegmentView& b) {
  return a.context == b.context && a.rank == b.rank && a.absStart == b.absStart &&
         a.end == b.end && std::ranges::equal(a.events, b.events);
}

void RankSegments::push_back(const SegmentView& seg) {
  const std::size_t offset = appendEvents(seg.events);
  headers_.push_back({seg.context, seg.absStart, seg.end, offset, seg.events.size()});
}

std::size_t RankSegments::appendEvents(std::span<const EventInterval> events) {
  const std::size_t offset = pool_.size();
  pool_.insert(pool_.end(), events.begin(), events.end());
  return offset;
}

void RankSegments::addShared(const SegmentHeader& header) {
  if (header.offset > pool_.size() || header.count > pool_.size() - header.offset)
    throw std::out_of_range("rank segments: events [" + std::to_string(header.offset) +
                            ", +" + std::to_string(header.count) + ") outside a pool of " +
                            std::to_string(pool_.size()));
  headers_.push_back(header);
}

void RankSegments::reserve(std::size_t segments, std::size_t events) {
  headers_.reserve(segments);
  pool_.reserve(events);
}

std::size_t RankSegments::totalEvents() const {
  std::size_t n = 0;
  for (const SegmentHeader& h : headers_) n += h.count;
  return n;
}

bool operator==(const RankSegments& a, const RankSegments& b) {
  return a.rank == b.rank && a.size() == b.size() && std::ranges::equal(a, b);
}

}  // namespace tracered
