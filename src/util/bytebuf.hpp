// Binary serialization primitives for the trace file formats.
//
// Fixed little-endian encodings plus LEB128-style varints. The trace formats
// (src/trace/trace_io) are defined on top of these, and the evaluation's
// "file size" criterion is the byte count produced here, so encodings must be
// stable.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tracered {

/// Growable output byte buffer with primitive encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Unsigned LEB128 varint.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void str(const std::string& s) {
    uvarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Longest valid uvarint/svarint encoding: 64 bits at 7 per byte.
inline constexpr std::size_t kMaxVarintBytes = 10;

namespace bytebuf_detail {

/// An unsigned LEB128 whose first byte, `first`, has the continuation bit
/// set: reads the rest through `next()` (one byte per call) and applies
/// FORMATS.md's validity rules. ByteReader and UncheckedByteReader decode the
/// one-byte case first and share this for the rest, so both reject the same
/// bytes with the same error, in the same order; it never reads past
/// kMaxVarintBytes in all.
template <class NextByte>
inline std::uint64_t uvarintTail(std::uint8_t first, NextByte next) {
  std::uint64_t v = first & 0x7f;
  for (int shift = 7;; shift += 7) {
    const std::uint8_t b = next();
    // The 10th byte may only carry bit 63: anything above is >= 64
    // significant bits, which FORMATS.md declares malformed — reject
    // instead of silently truncating the shifted-out payload. This is a
    // std::runtime_error, NOT std::out_of_range: out_of_range means
    // "truncated, more bytes could fix it" (the push decoder waits on
    // it), while an overflowing varint can never become valid no matter
    // how many bytes follow.
    if (shift == 63 && (b & 0x7e) != 0)
      throw std::runtime_error("uvarint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    if (shift + 7 >= 64) throw std::runtime_error("uvarint too long");
  }
}

/// Inverse of ByteWriter::svarint's zig-zag mapping.
inline std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace bytebuf_detail

/// Reader over a byte span with the primitive decoders matching ByteWriter.
/// Throws std::out_of_range on truncated input ("more bytes might complete
/// this": the push decoder waits on it) and std::runtime_error on malformed
/// input (FORMATS.md's varint validity rules: no suffix can fix it).
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) : buf_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint64_t uvarint() {
    const std::uint8_t b = u8();
    return b < 0x80 ? b : bytebuf_detail::uvarintTail(b, [this] { return u8(); });
  }

  std::int64_t svarint() { return bytebuf_detail::unzigzag(uvarint()); }

  /// Length-prefixed string.
  std::string str() {
    const std::uint64_t n = uvarint();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

  bool atEnd() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

  /// The unread bytes: where the next read starts and how many are left.
  const std::uint8_t* cursor() const { return buf_ + pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// Moves past `n` bytes (read by other means, e.g. UncheckedByteReader).
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  // Compared via subtraction (pos_ <= size_ always) so a corrupt near-2^64
  // length prefix cannot wrap `pos_ + n` past the bound.
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) throw std::out_of_range("ByteReader: truncated input");
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// ByteReader's u8/uvarint/svarint without bounds checks, for a caller that
/// has already shown enough bytes remain for everything it will read (e.g.
/// one worst-case record). Malformed input gets ByteReader's errors;
/// std::out_of_range never arises.
class UncheckedByteReader {
 public:
  explicit UncheckedByteReader(const std::uint8_t* data) : p_(data) {}

  std::uint8_t u8() { return *p_++; }

  std::uint64_t uvarint() {
    const std::uint8_t b = u8();
    return b < 0x80 ? b : bytebuf_detail::uvarintTail(b, [this] { return u8(); });
  }

  std::int64_t svarint() { return bytebuf_detail::unzigzag(uvarint()); }

  const std::uint8_t* cursor() const { return p_; }

 private:
  const std::uint8_t* p_;
};

}  // namespace tracered
