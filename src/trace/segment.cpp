#include "trace/segment.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace tracered {

bool Segment::compatible(const Segment& other) const {
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

std::uint64_t Segment::signature() const {
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

std::vector<double> distanceVector(const Segment& s) {
  std::vector<double> v(1 + 2 * s.events.size());
  writeDistanceVector(s, v);
  return v;
}

void writeDistanceVector(const Segment& s, std::span<double> out) {
  assert(out.size() == 1 + 2 * s.events.size());
  std::size_t i = 0;
  out[i++] = static_cast<double>(s.end);
  for (const auto& e : s.events) {
    out[i++] = static_cast<double>(e.start);
    out[i++] = static_cast<double>(e.end);
  }
}

std::vector<double> waveletVector(const Segment& s) {
  std::vector<double> v(2 + 2 * s.events.size());
  writeWaveletVector(s, v);
  return v;
}

void writeWaveletVector(const Segment& s, std::span<double> out) {
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

}  // namespace tracered
