#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "core/reduction_report.hpp"
#include "serve/feeder.hpp"
#include "trace/trace_io.hpp"
#include "util/table.hpp"
#include "util/version.hpp"

namespace tracered::serve {

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// What a strand's worker has done with the connection's DATA so far.
struct StrandProgress {
  std::uint64_t consumed = 0;  ///< payload bytes pushed (the ACK sequence number)
  std::uint64_t released = 0;  ///< payload bytes whose buffers are freed
  std::size_t tail = 0;        ///< the feeder's undecoded tail
};

/// STATS (the batch path's report rows plus the daemon's feed and reduce
/// times), the TRR1 bytes in RESULT chunks, and END.
std::vector<std::uint8_t> replyFrames(const core::ReductionConfig& config,
                                      const core::ReductionResult& result,
                                      std::size_t records, std::uint64_t dataBytes,
                                      double feedMs, double reduceMs) {
  core::ReportRows rows = core::reductionReportRows(config, result, records, dataBytes);
  rows.emplace_back("feed wall ms", fmtF(feedMs, 3));
  rows.emplace_back("reduce wall ms", fmtF(reduceMs, 3));
  const core::ReportRows counterRows = core::matchCounterRows(result.counters);
  rows.insert(rows.end(), counterRows.begin(), counterRows.end());

  std::vector<std::uint8_t> frames;
  appendFrame(frames, FrameType::kStats, encodeStats(rows));
  const std::vector<std::uint8_t> trr = serializeReducedTrace(result.reduced);
  for (std::size_t off = 0; off < trr.size() || off == 0;) {
    const std::size_t n = std::min(kMaxFramePayload, trr.size() - off);
    appendFrame(frames, FrameType::kResult, trr.data() + off, n);
    off += n;
    if (n == 0) break;
  }
  appendFrame(frames, FrameType::kEnd, nullptr, 0);
  return frames;
}

}  // namespace

/// A strand's terminal frames: STATS/RESULT/END, or one ERROR.
struct Server::Reply {
  std::vector<std::uint8_t> frames;
  bool ok = false;
};

/// A connection's ordered hand-off to the worker pool. The poll loop queues
/// DATA payloads and END; at most one pool task runs a strand at a time
/// (`scheduled`), so its pushes and its finish keep their order. Shared by
/// the connection and the task running it, so sweeping a connection
/// mid-feed never frees a strand under a worker.
struct Server::Strand {
  Strand(std::uint64_t id, const core::ReductionConfig& c, std::size_t windowBytes)
      : connId(id), config(c), feeder(c, windowBytes) {}

  /// Drops the queued DATA and stops the worker at its next slice.
  void cancel() {
    std::lock_guard<std::mutex> lock(mutex);
    cancelled = true;
    payloads.clear();
  }

  const std::uint64_t connId;
  const core::ReductionConfig config;

  // Touched only by the task running the strand.
  TraceStreamFeeder feeder;
  StrandProgress progress;
  double feedMs = 0;  ///< time spent in feeder.push

  std::mutex mutex;  ///< guards everything below
  // Poll loop -> worker.
  std::deque<std::vector<std::uint8_t>> payloads;
  bool ended = false;      ///< END is queued behind the payloads
  bool scheduled = false;  ///< a pool task is queued or running
  bool cancelled = false;  ///< the connection failed or is gone
  // Worker -> poll loop.
  StrandProgress published;
  std::optional<Reply> reply;
  bool posted = false;  ///< connId is in completed_, not yet drained
};

/// Per-connection state machine. Owned and touched ONLY by the poll-loop
/// thread; what it shares with a worker lives in its Strand.
struct Server::Connection {
  enum class State {
    kHandshake,  ///< waiting for HELLO
    kStreaming,  ///< handing DATA to the strand
    kReducing,   ///< END handed to the strand; waiting for its reply
    kDraining,   ///< reply (or ERROR) queued; flushing, then close
  };

  ~Connection() {
    if (strand) strand->cancel();
  }

  util::Fd fd;
  std::uint64_t id = 0;
  State state = State::kHandshake;

  /// Input ring: fixed capacity (the window), compacted before each read.
  std::vector<std::uint8_t> inBuf;
  std::size_t inConsumed = 0;

  /// Un-sent reply bytes (acks, then STATS/RESULT/END or ERROR frames).
  std::vector<std::uint8_t> outBuf;
  std::size_t outSent = 0;

  std::shared_ptr<Strand> strand;  ///< created at HELLO
  StrandProgress progress;         ///< the strand's last published progress
  std::uint64_t lastAcked = 0;
  std::uint64_t dataBytes = 0;  ///< DATA payload handed to the strand so far
  bool servedTrace = false;     ///< RESULT (not ERROR) is what is draining
  bool dead = false;            ///< swept (and closed) after event handling
  bool abrupt = false;          ///< dead because the peer vanished

  std::size_t inUnconsumed() const { return inBuf.size() - inConsumed; }
  std::size_t outUnsent() const { return outBuf.size() - outSent; }
  /// DATA handed to the strand that no worker has pushed yet.
  std::size_t strandUnconsumed() const { return dataBytes - progress.consumed; }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)) {
  if (options_.listenAddrs.empty())
    throw std::invalid_argument("serve: at least one listen address is required");
  if (options_.windowBytes < 4096 || options_.windowBytes > kMaxWindowBytes)
    throw std::invalid_argument("serve: windowBytes must be between 4096 and " +
                                std::to_string(kMaxWindowBytes));
  util::ignoreSigpipe();
  for (const std::string& addr : options_.listenAddrs)
    listeners_.push_back(util::listenSocket(addr));
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) throw std::runtime_error("serve: cannot create wake pipe");
  wakeRead_ = util::Fd(pipeFds[0]);
  wakeWrite_ = util::Fd(pipeFds[1]);
  util::setNonBlocking(wakeRead_.get());
  util::setNonBlocking(wakeWrite_.get());
}

Server::~Server() { stop(); }

std::vector<std::string> Server::boundAddresses() const {
  std::vector<std::string> out;
  out.reserve(listeners_.size());
  for (const util::Fd& fd : listeners_) out.push_back(util::localAddress(fd.get()));
  return out;
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  // Async-signal-safe wake-up: no locks, just a pipe write (EAGAIN means a
  // wake byte is already pending, which is just as good).
  const char b = 'x';
  [[maybe_unused]] const ssize_t rc = ::write(wakeWrite_.get(), &b, 1);
}

Server::Metrics Server::metrics() const {
  std::lock_guard<std::mutex> lock(metricsMutex_);
  return metrics_;
}

void Server::noteBuffered(const Connection& c) {
  const std::size_t buffered = c.inUnconsumed() + (c.dataBytes - c.progress.released) +
                               c.progress.tail + c.outUnsent();
  std::lock_guard<std::mutex> lock(metricsMutex_);
  if (buffered > metrics_.peakConnBufferedBytes)
    metrics_.peakConnBufferedBytes = buffered;
}

void Server::run() {
  const int width =
      options_.threads > 0 ? options_.threads
                           : static_cast<int>(util::PooledExecutor::hardwareThreads());
  workers_.emplace(std::max(2, width));
  pollLoop();
  conns_.clear();    // cancels every strand
  workers_.reset();  // joins the workers once running tasks see the cancel
}

void Server::pollLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;  // parallel to pfds; 0 = listener/wake
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    ids.clear();
    pfds.push_back({wakeRead_.get(), POLLIN, 0});
    ids.push_back(0);
    if (conns_.size() < options_.maxConnections)
      for (const util::Fd& l : listeners_) {
        pfds.push_back({l.get(), POLLIN, 0});
        ids.push_back(0);
      }
    for (const auto& [id, cp] : conns_) {
      const Connection& c = *cp;
      short events = 0;
      // Backpressure, both directions: only read while the input ring plus
      // what the strand has not consumed fits the ring AND the peer is
      // draining our output — a stalled reader gets its *input* paused once
      // `windowBytes` of un-sent output piles up, which is what caps
      // per-connection memory (docs/SERVE.md §4).
      const bool wantRead = (c.state == Connection::State::kHandshake ||
                             c.state == Connection::State::kStreaming) &&
                            c.inUnconsumed() + c.strandUnconsumed() < inRingCapacity() &&
                            c.outUnsent() <= options_.windowBytes;
      if (wantRead) events |= POLLIN;
      if (c.outUnsent() > 0) events |= POLLOUT;
      pfds.push_back({c.fd.get(), events, 0});
      ids.push_back(id);
    }

    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if (pfds[i].fd == wakeRead_.get()) {
        char buf[64];
        while (::read(wakeRead_.get(), buf, sizeof buf) > 0) {
        }
        drainCompleted();
        continue;
      }
      if (ids[i] == 0) {
        acceptPending(pfds[i].fd);
        continue;
      }
      const auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Connection& c = *it->second;
      if (re & (POLLIN | POLLHUP | POLLERR)) readable(c, (re & (POLLHUP | POLLERR)) != 0);
      if (!c.dead && (re & POLLOUT) && c.outUnsent() > 0) {
        writable(c);
        if (!c.dead) maybeAck(c);  // one held back while the output was full
      }
      noteBuffered(c);
    }

    // Sweep phase: closes happen here, never mid-iteration. A fully drained
    // kDraining connection is the graceful end of one served trace.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& c = *it->second;
      const bool drained =
          c.state == Connection::State::kDraining && c.outUnsent() == 0 && !c.dead;
      if (c.dead || drained) {
        if (drained && c.servedTrace) ++tracesDrained_;
        if (c.dead && c.abrupt) {
          std::lock_guard<std::mutex> lock(metricsMutex_);
          ++metrics_.abruptDisconnects;
        }
        it = conns_.erase(it);  // cancels the strand: queued DATA is never decoded
      } else {
        ++it;
      }
    }
    if (options_.maxTraces != 0 && tracesDrained_ >= options_.maxTraces) break;
  }
}

void Server::acceptPending(int listenFd) {
  while (conns_.size() < options_.maxConnections) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try again next poll
    }
    util::setNonBlocking(fd);
    if (options_.sendBufferBytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sendBufferBytes,
                   sizeof options_.sendBufferBytes);
    auto c = std::make_unique<Connection>();
    c->fd = util::Fd(fd);
    c->id = nextConnId_++;
    c->inBuf.reserve(inRingCapacity());
    const std::uint64_t id = c->id;
    conns_.emplace(id, std::move(c));
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++metrics_.connectionsAccepted;
  }
}

void Server::readable(Connection& c, bool hungUp) {
  // Compact the consumed prefix, then fill the ring up to what the window
  // leaves after the bytes still queued to the strand.
  if (c.inConsumed > 0) {
    c.inBuf.erase(c.inBuf.begin(), c.inBuf.begin() + static_cast<std::ptrdiff_t>(c.inConsumed));
    c.inConsumed = 0;
  }
  // A hung-up peer can no longer read a reply, whatever it left unread.
  bool sawEof = hungUp;
  while (c.inBuf.size() + c.strandUnconsumed() < inRingCapacity()) {
    const std::size_t old = c.inBuf.size();
    const std::size_t want = inRingCapacity() - old - c.strandUnconsumed();
    c.inBuf.resize(old + want);
    const util::IoResult r = util::readSome(c.fd.get(), c.inBuf.data() + old, want);
    c.inBuf.resize(old + (r.status == util::IoStatus::kOk ? r.n : 0));
    if (r.status == util::IoStatus::kOk) continue;
    if (r.status == util::IoStatus::kEof || r.status == util::IoStatus::kError)
      sawEof = true;
    break;  // kWouldBlock, kEof, or kError
  }

  // Decode every complete frame now buffered.
  while (!c.dead && c.state != Connection::State::kReducing &&
         c.state != Connection::State::kDraining) {
    std::size_t consumed = 0;
    std::optional<Frame> frame;
    try {
      frame = tryExtractFrame(c.inBuf.data() + c.inConsumed, c.inUnconsumed(), consumed);
    } catch (const std::exception& e) {
      sendError(c, e.what());
      break;
    }
    if (!frame) {
      // A frame that cannot even fit the ring can never complete: reject
      // instead of stalling forever with a full ring. The ring holds one
      // window-sized payload plus its header, so a max-window DATA frame
      // always fits.
      if (c.inUnconsumed() >= inRingCapacity())
        sendError(c, "frame larger than the " + std::to_string(options_.windowBytes) +
                         "-byte connection window");
      break;
    }
    c.inConsumed += consumed;
    handleFrame(c, *frame);
  }

  if (sawEof && !c.dead && c.state != Connection::State::kDraining) {
    // Peer vanished mid-conversation (truncated handshake, abrupt
    // disconnect mid-stream, or mid-reduce). Drop the connection; the
    // sweep cancels its strand, and a reply still coming finds it gone.
    c.dead = true;
    c.abrupt = true;
  } else if (sawEof && c.state == Connection::State::kDraining && c.outUnsent() > 0) {
    c.dead = true;  // closed without reading the reply
    c.abrupt = true;
  }
}

void Server::writable(Connection& c) {
  while (c.outUnsent() > 0) {
    const util::IoResult r =
        util::writeSome(c.fd.get(), c.outBuf.data() + c.outSent, c.outUnsent());
    if (r.status == util::IoStatus::kOk) {
      c.outSent += r.n;
      continue;
    }
    if (r.status == util::IoStatus::kWouldBlock) return;
    c.dead = true;  // kClosed / kError: reader is gone
    c.abrupt = true;
    return;
  }
  if (c.outSent == c.outBuf.size() && c.outSent > 0) {
    c.outBuf.clear();
    c.outSent = 0;
  }
}

void Server::queueOutput(Connection& c, std::vector<std::uint8_t> bytes) {
  if (c.outBuf.empty()) {
    c.outBuf = std::move(bytes);
    c.outSent = 0;
  } else {
    c.outBuf.insert(c.outBuf.end(), bytes.begin(), bytes.end());
  }
  writable(c);  // opportunistic flush; the rest goes out on POLLOUT
}

void Server::sendError(Connection& c, const std::string& message) {
  if (c.state == Connection::State::kDraining) return;
  if (c.strand) c.strand->cancel();
  std::vector<std::uint8_t> frames;
  appendFrame(frames, FrameType::kError, encodeError(message));
  c.state = Connection::State::kDraining;
  c.servedTrace = false;
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++metrics_.protocolErrors;
  }
  queueOutput(c, std::move(frames));
}

void Server::maybeAck(Connection& c) {
  // Held back while a stalled reader leaves a window of output un-sent:
  // ACKs are cumulative, so the next one covers these bytes too.
  if ((c.state != Connection::State::kStreaming &&
       c.state != Connection::State::kReducing) ||
      c.outUnsent() > options_.windowBytes || c.progress.consumed - c.lastAcked < ackEvery())
    return;
  ackConsumed(c);
}

void Server::ackConsumed(Connection& c) {
  c.lastAcked = c.progress.consumed;
  std::vector<std::uint8_t> frames;
  appendFrame(frames, FrameType::kAck, encodeAck(c.lastAcked));
  queueOutput(c, std::move(frames));
}

void Server::handleFrame(Connection& c, Frame& f) {
  switch (c.state) {
    case Connection::State::kHandshake: {
      if (f.type != FrameType::kHello) {
        sendError(c, std::string("expected HELLO as the first frame, got ") +
                         frameTypeName(f.type));
        return;
      }
      HelloPayload hello;
      try {
        hello = decodeHello(f.payload);
      } catch (const std::exception& e) {
        sendError(c, e.what());
        return;
      }
      if (hello.version != kProtocolVersion) {
        sendError(c, "protocol version mismatch: client speaks v" +
                         std::to_string(hello.version) + ", this server speaks v" +
                         std::to_string(kProtocolVersion) + " (" + util::kVersionLine +
                         ")");
        return;
      }
      core::ReductionConfig config;
      try {
        config = core::ReductionConfig::fromName(hello.config);
      } catch (const std::invalid_argument& e) {
        sendError(c, e.what());
        return;
      }
      c.strand = std::make_shared<Strand>(c.id, config, options_.windowBytes);
      WelcomePayload welcome;
      welcome.windowBytes = options_.windowBytes;
      std::vector<std::uint8_t> frames;
      appendFrame(frames, FrameType::kWelcome, encodeWelcome(welcome));
      c.state = Connection::State::kStreaming;
      queueOutput(c, std::move(frames));
      return;
    }
    case Connection::State::kStreaming: {
      if (f.type == FrameType::kData) {
        c.dataBytes += f.payload.size();
        if (!f.payload.empty()) enqueue(c.strand, std::move(f.payload));
        return;
      }
      if (f.type == FrameType::kEnd) {
        if (!f.payload.empty()) {
          sendError(c, "END frame must have an empty payload");
          return;
        }
        c.state = Connection::State::kReducing;
        enqueue(c.strand, {});
        return;
      }
      sendError(c, std::string("unexpected ") + frameTypeName(f.type) +
                       " frame while streaming (want DATA or END)");
      return;
    }
    case Connection::State::kReducing:
    case Connection::State::kDraining:
      sendError(c, std::string("unexpected ") + frameTypeName(f.type) +
                       " frame after END");
      return;
  }
}

void Server::enqueue(const std::shared_ptr<Strand>& s, std::vector<std::uint8_t> payload) {
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    if (s->cancelled) return;
    if (payload.empty())
      s->ended = true;  // an empty payload queues END
    else
      s->payloads.push_back(std::move(payload));
    if (s->scheduled) return;  // the running task will get to it
    s->scheduled = true;
  }
  workers_->post([this, s] { runStrand(*s); });
}

void Server::runStrand(Strand& s) {
  try {
    for (;;) {
      std::vector<std::uint8_t> payload;
      {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.cancelled || (s.payloads.empty() && !s.ended)) {
          s.scheduled = false;
          return;
        }
        if (s.payloads.empty()) break;  // END, behind every payload
        payload = std::move(s.payloads.front());
        s.payloads.pop_front();
      }
      // Push in ACK-sized slices and publish each, so the client's window
      // reopens while the rest of the payload is still decoding.
      const std::size_t size = payload.size();
      for (std::size_t off = 0; off < size;) {
        const std::size_t n = std::min<std::size_t>(ackEvery(), size - off);
        const auto t0 = std::chrono::steady_clock::now();
        s.feeder.push(payload.data() + off, n);
        s.feedMs += msSince(t0);
        off += n;
        s.progress.consumed += n;
        s.progress.tail = s.feeder.pendingBytes();
        if (off == size) {
          payload = {};
          s.progress.released = s.progress.consumed;
        }
        if (!publish(s)) return;  // cancelled: drop the rest
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    const core::ReductionResult result = s.feeder.finishStream();
    const double reduceMs = msSince(t0);
    Reply reply;
    reply.frames = replyFrames(s.config, result, s.feeder.recordsFed(),
                               s.progress.consumed, s.feedMs, reduceMs);
    reply.ok = true;
    {
      std::lock_guard<std::mutex> lock(metricsMutex_);
      ++metrics_.tracesServed;
    }
    publish(s, &reply);
  } catch (const std::exception& e) {
    Reply reply;
    appendFrame(reply.frames, FrameType::kError, encodeError(e.what()));
    publish(s, &reply);
    s.cancel();
  }
}

bool Server::publish(Strand& s, Reply* reply) {
  bool wake = false;
  bool live = false;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.published = s.progress;
    if (reply) s.reply = std::move(*reply);
    wake = !s.posted;
    s.posted = true;
    live = !s.cancelled;
  }
  if (wake) {
    {
      std::lock_guard<std::mutex> lock(completedMutex_);
      completed_.push_back(s.connId);
    }
    const char b = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wakeWrite_.get(), &b, 1);
  }
  return live;
}

void Server::drainCompleted() {
  std::deque<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(completedMutex_);
    ids.swap(completed_);
  }
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // swept: its strand is cancelled
    Connection& c = *it->second;
    std::optional<Reply> reply;
    {
      std::lock_guard<std::mutex> lock(c.strand->mutex);
      c.strand->posted = false;
      c.progress = c.strand->published;
      reply.swap(c.strand->reply);
    }
    if (c.dead || c.state == Connection::State::kDraining) continue;  // ERROR queued
    if (!reply) {
      maybeAck(c);
    } else {
      // The reply follows an ACK of the whole stream, window or not: it is
      // the last ACK, at most one frame.
      if (reply->ok && c.progress.consumed > c.lastAcked) ackConsumed(c);
      c.servedTrace = reply->ok;
      if (!reply->ok) {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        ++metrics_.protocolErrors;
      }
      c.state = Connection::State::kDraining;
      queueOutput(c, std::move(reply->frames));
    }
    noteBuffered(c);
  }
}

}  // namespace tracered::serve
