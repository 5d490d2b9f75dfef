#include <algorithm>
#include <stdexcept>

#include "core/reduction_config.hpp"
#include "fuzz/fuzz_targets.hpp"
#include "serve/feeder.hpp"
#include "serve/protocol.hpp"

namespace tracered::fuzz {

int runServe(const std::uint8_t* data, std::size_t size) {
  // Frame extractor + typed payload decoders over the raw byte stream,
  // exactly as a serve connection consumes its input ring.
  try {
    std::size_t off = 0;
    while (off < size) {
      std::size_t consumed = 0;
      const auto frame = serve::tryExtractFrame(data + off, size - off, consumed);
      if (!frame) break;  // partial tail: a connection would wait for more
      off += consumed;
      try {
        switch (frame->type) {
          case serve::FrameType::kHello:
            serve::decodeHello(frame->payload);
            break;
          case serve::FrameType::kWelcome:
            serve::decodeWelcome(frame->payload);
            break;
          case serve::FrameType::kAck:
            serve::decodeAck(frame->payload);
            break;
          case serve::FrameType::kStats:
            serve::decodeStats(frame->payload);
            break;
          case serve::FrameType::kError:
            serve::decodeError(frame->payload);
            break;
          default:  // DATA/END payloads are opaque here; unknown types too
            break;
        }
      } catch (const std::runtime_error&) {  // malformed payload: rejected
      } catch (const std::logic_error&) {
      }
    }
  } catch (const std::runtime_error&) {  // malformed header: rejected
  }

  // TraceStreamFeeder (the push decoder feeding a ReductionSession) over the
  // same bytes, chunked; the first byte picks the chunk size so the fuzzer
  // explores push-boundary placements.
  const std::size_t chunk = size != 0 ? static_cast<std::size_t>(data[0] % 64) + 1 : 1;
  try {
    serve::TraceStreamFeeder feeder(
        core::ReductionConfig::fromName("avgWave@0.2"));
    for (std::size_t off = 0; off < size; off += chunk)
      feeder.push(data + off, std::min(chunk, size - off));
    feeder.finishStream();
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {  // includes invalid_argument/out_of_range
  }
  return 0;
}

}  // namespace tracered::fuzz
