// Wire protocol of `tracered serve` (normative spec: docs/SERVE.md).
//
// A connection is one length-prefixed frame stream in each direction over a
// unix-domain or TCP socket:
//
//   frame := u32le bodyLen | u8 type | payload[bodyLen - 1]
//
// (bodyLen counts the type byte, so it is always >= 1; payloads are capped
// at kMaxFramePayload so a hostile length prefix can never translate into a
// giant allocation). The client opens with HELLO (magic, protocol version,
// ReductionConfig spelling), the server answers WELCOME (version, window
// size), the client streams the raw bytes of a TRF1/text trace file in DATA
// frames and finishes with END; the server replies STATS (the batch path's
// --stats counter rows) then RESULT (TRR1 bytes) and closes. ACK frames
// carry the cumulative count of payload bytes the server has consumed — the
// derecho-style sequence numbers the client's send window is computed from
// (docs/SERVE.md §4). Any violation is answered with one ERROR frame and a
// close.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/version.hpp"

namespace tracered::serve {

/// Handshake magic ("TRSV", little-endian like the trace file magics).
inline constexpr std::uint32_t kHelloMagic = 0x56535254;

/// Wire protocol version — the single constant in util/version.hpp, so the
/// `--version` line and the handshake can never disagree.
inline constexpr std::uint16_t kProtocolVersion =
    static_cast<std::uint16_t>(util::kServeProtocolVersion);

/// Frame header: u32le body length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Hard cap on one frame's payload. Larger DATA chunks must be split; a
/// length prefix above this is a protocol error, not an allocation.
inline constexpr std::size_t kMaxFramePayload = 256 * 1024;

/// Default per-connection receive window (bytes of un-acked DATA payload a
/// client may have in flight; also the server's per-connection input ring
/// capacity).
inline constexpr std::size_t kDefaultWindowBytes = 256 * 1024;

/// Largest window a server accepts (256x the default): the input ring is
/// allocated at full window size on every accept, so an unbounded window
/// would fail the first accept and every connection with it.
inline constexpr std::size_t kMaxWindowBytes = 64 * 1024 * 1024;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,  ///< u32 magic, u16 version, str config spelling
  kData = 0x02,   ///< raw trace file bytes (TRF1 or text, any chunking)
  kEnd = 0x03,    ///< end of trace stream (empty payload)
  // server -> client
  kWelcome = 0x10,  ///< u16 version, u64 window bytes
  kAck = 0x11,      ///< u64 cumulative DATA payload bytes consumed
  kStats = 0x12,    ///< report rows, one "key\tvalue\n" line each
  kResult = 0x13,   ///< the reduced trace: raw TRR1 bytes
  kError = 0x1f,    ///< str message; sender closes after
};

const char* frameTypeName(FrameType t);

/// One decoded frame (type + owned payload).
struct Frame {
  FrameType type;
  std::vector<std::uint8_t> payload;
};

/// Appends the encoding of one frame to `out`. Throws std::invalid_argument
/// if `payloadLen` exceeds kMaxFramePayload.
void appendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::uint8_t* payload, std::size_t payloadLen);
void appendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::vector<std::uint8_t>& payload);

/// Incremental frame extractor: tries to decode one complete frame from the
/// front of `buf`. Returns the frame and sets `consumed` to the bytes to
/// drop from the front; std::nullopt when `buf` holds only a partial frame.
/// Throws std::runtime_error on a malformed header (bodyLen of 0 or a
/// payload above kMaxFramePayload) — the caller answers ERROR and closes.
std::optional<Frame> tryExtractFrame(const std::uint8_t* buf, std::size_t len,
                                     std::size_t& consumed);

// --- typed payload encode/decode (throw std::runtime_error on malformed) ---

struct HelloPayload {
  std::uint16_t version = kProtocolVersion;
  std::string config;  ///< ReductionConfig spelling, e.g. "avgWave@0.2"
};

struct WelcomePayload {
  std::uint16_t version = kProtocolVersion;
  std::uint64_t windowBytes = kDefaultWindowBytes;
};

std::vector<std::uint8_t> encodeHello(const HelloPayload& h);
HelloPayload decodeHello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encodeWelcome(const WelcomePayload& w);
WelcomePayload decodeWelcome(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encodeAck(std::uint64_t consumed);
std::uint64_t decodeAck(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encodeError(const std::string& message);
std::string decodeError(const std::vector<std::uint8_t>& payload);

/// STATS payload: the report rows as "key\tvalue\n" lines (decode splits
/// them back; tolerates a missing trailing newline).
std::vector<std::uint8_t> encodeStats(
    const std::vector<std::pair<std::string, std::string>>& rows);
std::vector<std::pair<std::string, std::string>> decodeStats(
    const std::vector<std::uint8_t>& payload);

}  // namespace tracered::serve
