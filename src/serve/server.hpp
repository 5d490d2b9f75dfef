// The `tracered serve` daemon: a concurrent trace-ingest server over
// ReductionSession.
//
// Threading. One poll-loop thread owns every socket and connection: it only
// accepts, cuts frames, hands DATA payloads off and flushes replies. All
// trace work runs on one server-owned util::PooledExecutor (ServerOptions::
// threads workers, at least 2). Each connection has a *strand*: a FIFO of
// its DATA payloads and END, run in order by whichever worker is free, at
// most one at a time per strand, so one connection's pushes and its finish
// stay ordered while different connections decode, segment, match and
// finish concurrently. A small request is therefore never stuck behind the
// chunks of a large stream on the poll loop. A strand finishes inline on
// its own worker (its config has no executor), so the daemon never shards
// and one long finish holds one worker, not the whole pool. Workers post
// their progress and replies back through a queue and the wake pipe. The
// deterministic core is untouched: a connection is HELLO -> WELCOME ->
// DATA* -> END on the wire and exactly `feeder.push()* ; finishStream()`
// inside, so every reduced trace a daemon returns is byte-identical to
// `tracered reduce` of the same bytes.
//
// Per-connection memory is bounded by construction (the backpressure story,
// docs/SERVE.md §4, after derecho's P2PConnections ring-buffers + sequence
// numbers): the socket is only read while the input ring plus the bytes
// handed to the strand but not yet consumed by a worker fit one window; ACK
// frames carry the cumulative count of bytes a worker has consumed, which
// well-behaved clients window on; and once more than `windowBytes` of
// un-sent output accumulates (a stalled reader), the socket is not read and
// no further ACK is minted until the peer drains — so neither a blasting
// producer nor a stalled consumer can grow server memory beyond a few
// windows (tested, via Metrics::peakConnBufferedBytes).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/reduction_config.hpp"
#include "serve/protocol.hpp"
#include "util/executor.hpp"
#include "util/socket.hpp"

namespace tracered::serve {

struct ServerOptions {
  /// Listen addresses ("unix:<path>" / "tcp:<host>:<port>"); at least one.
  std::vector<std::string> listenAddrs;
  /// Per-connection receive window: input ring capacity, feeder parse-window
  /// cap, and the stalled-reader output pause threshold. Between 4096 and
  /// kMaxWindowBytes.
  std::size_t windowBytes = kDefaultWindowBytes;
  /// Workers in the daemon's one pool, which runs every strand (<= 0
  /// selects hardware concurrency). At least 2 run, so one stream never
  /// holds the only worker.
  int threads = 0;
  /// Accepted connections above this wait in the listen backlog.
  std::size_t maxConnections = 256;
  /// Stop after serving this many traces; 0 = run until stop(). The hook
  /// scripted one-shot runs (cookbook, CLI tests) use for clean teardown.
  std::uint64_t maxTraces = 0;
  /// ACK after this many consumed payload bytes (also the slice a worker
  /// pushes between progress reports); 0 = windowBytes/4 + 1. Tests shrink
  /// it to make ack traffic dense enough to exercise the stalled-reader
  /// pause at small scale.
  std::uint64_t ackEveryBytes = 0;
  /// SO_SNDBUF for accepted connections; 0 = OS default. Shrinking it makes
  /// the kernel stop absorbing un-drained acks early, again for backpressure
  /// tests that must trigger the pause without streaming megabytes.
  int sendBufferBytes = 0;
};

class Server {
 public:
  /// Binds and listens on every address (throws on failure); run() starts
  /// serving. Installs no signal handlers — the CLI front end does that.
  explicit Server(ServerOptions options);
  ~Server();

  /// The bound addresses in connectSocket() syntax, with tcp port 0
  /// resolved to the kernel-assigned port.
  std::vector<std::string> boundAddresses() const;

  /// Serves until stop() (or maxTraces). Call once, from any one thread.
  void run();

  /// Requests run() to return. Async-signal-safe (atomic store + pipe
  /// write), so SIGINT/SIGTERM handlers may call it directly.
  void stop();

  struct Metrics {
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t tracesServed = 0;      ///< RESULT delivered and drained
    std::uint64_t protocolErrors = 0;    ///< ERROR frames sent
    std::uint64_t abruptDisconnects = 0; ///< peer vanished mid-conversation
    /// Max over time and connections of (input ring + DATA held by the
    /// strand + undecoded parse tail + un-sent output) — the number the
    /// backpressure tests bound.
    std::size_t peakConnBufferedBytes = 0;
  };
  Metrics metrics() const;

 private:
  struct Connection;
  struct Strand;  ///< a connection's ordered hand-off to the worker pool
  struct Reply;   ///< a strand's terminal frames (reply or ERROR)

  void pollLoop();
  void acceptPending(int listenFd);
  void readable(Connection& c, bool hungUp);
  void writable(Connection& c);
  void handleFrame(Connection& c, Frame& f);
  void sendError(Connection& c, const std::string& message);
  void queueOutput(Connection& c, std::vector<std::uint8_t> bytes);
  void maybeAck(Connection& c);
  void ackConsumed(Connection& c);
  void enqueue(const std::shared_ptr<Strand>& s, std::vector<std::uint8_t> payload);
  void runStrand(Strand& s);
  bool publish(Strand& s, Reply* reply = nullptr);
  void drainCompleted();
  void noteBuffered(const Connection& c);

  /// Input ring capacity: one window-sized payload plus its frame header, so
  /// the largest frame a well-behaved client may send always completes.
  std::size_t inRingCapacity() const {
    return options_.windowBytes + kFrameHeaderBytes;
  }
  /// Consumed bytes per ACK, and per feeder push on a worker.
  std::uint64_t ackEvery() const {
    return options_.ackEveryBytes != 0 ? options_.ackEveryBytes
                                       : options_.windowBytes / 4 + 1;
  }

  ServerOptions options_;
  std::vector<util::Fd> listeners_;
  util::Fd wakeRead_, wakeWrite_;

  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t nextConnId_ = 1;
  std::uint64_t tracesDrained_ = 0;

  std::atomic<bool> stop_{false};

  std::mutex completedMutex_;
  std::deque<std::uint64_t> completed_;  ///< connections whose strand has news

  mutable std::mutex metricsMutex_;
  Metrics metrics_;

  /// Runs the strands; lives for one run() and is joined before it returns.
  /// Declared last: its tasks use every member above.
  std::optional<util::PooledExecutor> workers_;
};

}  // namespace tracered::serve
