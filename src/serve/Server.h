// Server.h - the mha-serve daemon core: accept loop, admission control,
// request dispatch and graceful shutdown.
//
// One Server owns a Unix-domain listening socket, a reader thread per
// connection and a fixed ThreadPool of compile workers. Admission is a
// simple bounded-outstanding policy: a compile request is admitted while
// fewer than maxInflight + maxQueue admitted requests are still
// unfinished; past that the request is rejected immediately with a typed
// `busy` error — the daemon never blocks a client on a full queue and
// never grows an unbounded backlog. (Outstanding = admitted-but-not-done,
// whether queued or running, which makes the rejection point exact and
// testable rather than racy.)
//
// Cancellation: each admitted request owns an atomic flag; an explicit
// `cancel` request (same connection, same id) or the client disconnecting
// sets it. Flows check the flag at stage boundaries; a request cancelled
// while still queued never starts its flow at all.
//
// Graceful shutdown (SIGINT/SIGTERM via notifyFromSignal(), the
// `shutdown` admin request, or stop()): stop accepting, reject new
// compiles with `shutting_down`, drain outstanding work within drainMs,
// then cancel whatever remains and wait for it to unwind. Every thread is
// joined — nothing is detached — so TSan-observed shutdown is clean and
// the caller can flush metrics/event logs after stop() returns.
#pragma once

#include "serve/Session.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mha::serve {

struct ServerOptions {
  std::string socketPath;
  /// Compile worker threads (also the max concurrently running flows).
  int maxInflight = 2;
  /// Admitted-but-waiting requests allowed beyond the inflight set.
  int maxQueue = 8;
  /// Graceful-drain deadline before outstanding work is cancelled.
  int64_t drainMs = 10000;
  SessionOptions session;
  /// StageCache::setLimitBytes value applied at start() (0 = unbounded).
  int64_t stageCacheLimitBytes = 0;
};

class Server {
public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket (replacing any stale file at the path), applies the
  /// stage-cache limit and spawns the accept thread.
  bool start(std::string *error = nullptr);

  /// Requests graceful shutdown (idempotent, any thread).
  void requestStop();

  /// Async-signal-safe shutdown trigger for SIGINT/SIGTERM handlers: one
  /// write(2) to the server's self-pipe, nothing else.
  void notifyFromSignal();

  /// Blocks until the server has fully shut down (accept loop exited,
  /// every connection and worker joined, socket unlinked).
  void wait();

  /// requestStop() + wait().
  void stop();

  bool running() const;
  const std::string &socketPath() const { return options_.socketPath; }

  /// Request counts for tests, the load generator and the shutdown line:
  /// the mha_serve_* counters (which count without the metrics gate)
  /// since this Server was constructed. The counters are process-wide,
  /// so two Servers running in one process see each other's traffic.
  struct Stats {
    int64_t connections = 0;
    int64_t admitted = 0;
    int64_t rejectedBusy = 0;
    int64_t rejectedShutdown = 0;
    int64_t completedOk = 0;
    int64_t completedError = 0;
    int64_t cancelled = 0;
  };
  Stats stats() const;

  /// Admitted-but-unfinished requests right now.
  int64_t outstanding() const;

private:
  struct Conn;
  struct Pending;

  void acceptLoop();
  void readerLoop(std::shared_ptr<Conn> conn);
  void handleLine(const std::shared_ptr<Conn> &conn, const std::string &line);
  void runPending(std::shared_ptr<Pending> pending);
  void drainAndJoin();
  static void emitTo(const std::shared_ptr<Conn> &conn,
                     const std::string &line);

  ServerOptions options_;

  int listenFd_ = -1;
  int wakeRead_ = -1;
  int wakeWrite_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> shuttingDown_{false};

  std::thread acceptThread_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;
  int64_t outstanding_ = 0;
  Stats base_; // counter values at construction
};

} // namespace mha::serve
