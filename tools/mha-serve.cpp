// mha-serve - persistent compile-as-a-service daemon.
//
//   mha-serve --socket=<path> [--max-inflight=N] [--max-queue=N]
//             [--drain-ms=MS] [--stage-cache-limit=BYTES]
//             [--no-stage-cache]
//
// Listens on a Unix-domain socket speaking newline-delimited JSON
// (request schema "mha.serve.req.v1", response schema
// "mha.serve.resp.v1"; see src/serve/Protocol.h). Compile requests name a
// built-in kernel or carry inline MLIR text, pick a flow (adaptor or
// hls-cpp) and the directive knobs, and stream back per-stage progress
// followed by the result. Results are keyed into the process-global
// StageCache, so repeated requests are whole-pipeline warm hits;
// --stage-cache-limit bounds the cache's resident bytes with LRU
// eviction. Admission is bounded (--max-inflight running plus --max-queue
// waiting); past that, requests are rejected immediately with a typed
// `busy` error.
//
// Shutdown is graceful on SIGINT/SIGTERM or a `shutdown` request: stop
// accepting, drain outstanding work within --drain-ms (then cancel it),
// join every thread, flush metrics/event-log outputs, exit 0. The shared
// observability flags (--metrics-out, --metrics-interval, --metrics-prom,
// --event-log, --event-log-level) are documented in ObservabilityCli.h —
// a long-running daemon typically wants --metrics-interval so the
// snapshot stays fresh.
#include "ObservabilityCli.h"

#include "serve/Server.h"
#include "support/StringUtils.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

using namespace mha;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mha-serve --socket=<path> [--max-inflight=N] [--max-queue=N]\n"
      "                 [--drain-ms=MS] [--stage-cache-limit=BYTES]\n"
      "                 [--no-stage-cache]\n"
      "                 [--metrics-out=m.json] [--metrics-interval=MS]\n"
      "                 [--metrics-prom=m.prom] [--event-log=e.jsonl]\n"
      "                 [--event-log-level=debug|info|warn|error]\n");
  return 2;
}

serve::Server *signalTarget = nullptr;

void onSignal(int) {
  // Async-signal-safe: one write to the server's self-pipe.
  if (signalTarget)
    signalTarget->notifyFromSignal();
}

} // namespace

int main(int argc, char **argv) {
  serve::ServerOptions options;
  int64_t maxInflight = 2, maxQueue = 8, drainMs = 10000;
  int64_t stageCacheLimit = 0;

  obscli::Options obsOptions;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool obsOk = true;
    if (obscli::parseFlag(arg, obsOptions, obsOk)) {
      if (!obsOk)
        return usage();
    } else if (startsWith(arg, "--socket="))
      options.socketPath = arg.substr(9);
    else if (startsWith(arg, "--max-inflight=")) {
      if (!parseNumericFlag(arg, 15, "--max-inflight", 1, 4096, maxInflight))
        return usage();
    } else if (startsWith(arg, "--max-queue=")) {
      if (!parseNumericFlag(arg, 12, "--max-queue", 0, 1 << 20, maxQueue))
        return usage();
    } else if (startsWith(arg, "--drain-ms=")) {
      if (!parseNumericFlag(arg, 11, "--drain-ms", 0, 86400000, drainMs))
        return usage();
    } else if (startsWith(arg, "--stage-cache-limit=")) {
      if (!parseNumericFlag(arg, 20, "--stage-cache-limit", 0, INT64_MAX,
                            stageCacheLimit))
        return usage();
    } else if (arg == "--no-stage-cache")
      options.session.useStageCache = false;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    }
  }
  if (options.socketPath.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return usage();
  }
  options.maxInflight = static_cast<int>(maxInflight);
  options.maxQueue = static_cast<int>(maxQueue);
  options.drainMs = drainMs;
  options.stageCacheLimitBytes = stageCacheLimit;

  obscli::Session obs;
  if (!obs.begin(obsOptions))
    return usage();

  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "mha-serve: %s\n", error.c_str());
    obs.finish();
    return 1;
  }
  std::fprintf(stderr, "mha-serve: listening on %s\n",
               options.socketPath.c_str());

  signalTarget = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  signalTarget = nullptr;

  serve::Server::Stats stats = server.stats();
  std::fprintf(stderr,
               "mha-serve: stopped (connections=%lld admitted=%lld ok=%lld "
               "error=%lld cancelled=%lld busy=%lld)\n",
               static_cast<long long>(stats.connections),
               static_cast<long long>(stats.admitted),
               static_cast<long long>(stats.completedOk),
               static_cast<long long>(stats.completedError),
               static_cast<long long>(stats.cancelled),
               static_cast<long long>(stats.rejectedBusy));
  return obs.finish() ? 0 : 1;
}
