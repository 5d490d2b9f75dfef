// tracered serve — the long-running trace-ingest daemon (docs/SERVE.md).
//
//   tracered serve --listen unix:/tmp/tracered.sock --listen tcp:127.0.0.1:7411
//
// Prints one "listening on <addr>" line per bound address (port 0 resolved)
// so scripts can scrape the actual endpoint, then serves until SIGINT /
// SIGTERM (handled via Server::stop(), which is async-signal-safe) or until
// --max-traces streams have been served — the one-shot mode the cookbook and
// CLI tests script against.
#include <csignal>
#include <cstdio>

#include "commands.hpp"

#include "serve/server.hpp"
#include "util/version.hpp"

namespace tracered::tools {

namespace {

serve::Server* gServer = nullptr;

void handleStopSignal(int) {
  if (gServer != nullptr) gServer->stop();
}

int runServe(const CliArgs& args) {
  serve::ServerOptions options;
  options.listenAddrs = args.getAll("listen");
  if (options.listenAddrs.empty())
    throw UsageError("at least one --listen <addr> is required (unix:<path> or "
                     "tcp:<host>:<port>)");
  const std::int64_t window = args.getInt("window", 0);
  if (window != 0) {
    if (window < 4096 || window > static_cast<std::int64_t>(serve::kMaxWindowBytes))
      throw UsageError("--window must be between 4096 and " +
                       std::to_string(serve::kMaxWindowBytes) + " bytes");
    options.windowBytes = static_cast<std::size_t>(window);
  }
  options.threads = threadsFlag(args, 0);
  const std::int64_t maxClients = args.getInt("max-clients", 256);
  if (maxClients < 1) throw UsageError("--max-clients must be at least 1");
  options.maxConnections = static_cast<std::size_t>(maxClients);
  const std::int64_t maxTraces = args.getInt("max-traces", 0);
  if (maxTraces < 0) throw UsageError("--max-traces must be at least 0");
  options.maxTraces = static_cast<std::uint64_t>(maxTraces);

  serve::Server server(std::move(options));

  for (const std::string& addr : server.boundAddresses())
    std::printf("listening on %s\n", addr.c_str());
  std::fflush(stdout);  // scripts scrape these lines through a pipe

  gServer = &server;
  struct sigaction sa = {};
  sa.sa_handler = handleStopSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  server.run();
  gServer = nullptr;

  const serve::Server::Metrics m = server.metrics();
  std::fprintf(stderr,
               "serve: %llu connections, %llu traces served, %llu protocol errors, "
               "%llu abrupt disconnects, peak buffered %zu bytes\n",
               static_cast<unsigned long long>(m.connectionsAccepted),
               static_cast<unsigned long long>(m.tracesServed),
               static_cast<unsigned long long>(m.protocolErrors),
               static_cast<unsigned long long>(m.abruptDisconnects),
               m.peakConnBufferedBytes);
  return 0;
}

}  // namespace

CliCommand makeServeCommand() {
  CliCommand c;
  c.name = "serve";
  c.usage = "serve --listen <addr> [--listen <addr>...] [flags]";
  c.summary = "run the trace-ingest daemon (protocol v" +
              std::to_string(util::kServeProtocolVersion) + ", docs/SERVE.md)";
  c.flags = {
      {"listen", "<addr>",
       "bind address, repeatable: unix:<path> or tcp:<host>:<port> (port 0 = "
       "kernel-assigned, printed on startup)"},
      {"window", "<bytes>",
       "per-connection receive window: input ring capacity and backpressure "
       "bound, 4096 to 67108864 (default 262144)"},
      {"threads", "<n>",
       "workers in the daemon's one pool, which runs every stream's decode, "
       "match and finish; 0 = hardware concurrency; at least 2 run (default 0)"},
      {"max-clients", "<n>", "concurrent connection cap (default 256)"},
      {"max-traces", "<n>",
       "exit after serving this many traces; 0 = run until SIGINT/SIGTERM "
       "(default 0)"},
  };
  c.run = runServe;
  return c;
}

}  // namespace tracered::tools
