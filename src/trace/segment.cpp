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
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

std::uint64_t SegmentView::signature() const {
  std::uint64_t h = 0x8f1bbcdcbfa53e0bull;
  h = mix(h, context);
  h = mix(h, events.size());
  for (const auto& e : events) {
    h = mix(h, e.name);
    h = mix(h, static_cast<std::uint64_t>(e.op));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.msg.peer)));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.msg.tag)));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.msg.root)));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.msg.comm)));
    h = mix(h, e.msg.bytes);
  }
  return h;
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
