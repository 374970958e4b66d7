#include "serve/Server.h"

#include "flow/StageCache.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mha::serve {

namespace {

/// A request line longer than this kills the connection: inline MLIR is
/// already capped, so anything bigger is a broken or hostile client.
constexpr size_t kMaxLineBytes = kMaxInlineMlirBytes + (64u << 10);

metrics::Gauge &queueGauge() {
  static metrics::Gauge &g = metrics::Registry::global().gauge(
      "mha_serve_queue_depth", "admitted requests waiting for a worker");
  return g;
}

metrics::Gauge &inflightGauge() {
  static metrics::Gauge &g = metrics::Registry::global().gauge(
      "mha_serve_inflight", "requests currently compiling");
  return g;
}

metrics::Histogram &requestHistogram() {
  static metrics::Histogram &h = metrics::Registry::global().histogram(
      "mha_serve_request_us", "admission-to-done request latency");
  return h;
}

metrics::Counter &admittedCounter() {
  static metrics::Counter &c = metrics::Registry::global().counter(
      "mha_serve_admitted_total", "compile requests admitted");
  return c;
}

metrics::Counter &rejectedCounter(const char *reason) {
  // Two label values only; resolve each once.
  static metrics::Counter &busy = metrics::Registry::global().counter(
      "mha_serve_rejected_total", "compile requests rejected at admission",
      {{"reason", "busy"}});
  static metrics::Counter &shutdown = metrics::Registry::global().counter(
      "mha_serve_rejected_total", "compile requests rejected at admission",
      {{"reason", "shutdown"}});
  return std::strcmp(reason, "busy") == 0 ? busy : shutdown;
}

metrics::Counter &completedCounter(bool ok) {
  static metrics::Counter &okc = metrics::Registry::global().counter(
      "mha_serve_completed_total", "compile requests finished",
      {{"status", "ok"}});
  static metrics::Counter &errCounter = metrics::Registry::global().counter(
      "mha_serve_completed_total", "compile requests finished",
      {{"status", "error"}});
  return ok ? okc : errCounter;
}

metrics::Counter &cancelledCounter() {
  static metrics::Counter &c = metrics::Registry::global().counter(
      "mha_serve_cancelled_total", "compile requests cancelled");
  return c;
}

metrics::Counter &connectionsCounter() {
  static metrics::Counter &c = metrics::Registry::global().counter(
      "mha_serve_connections_total", "client connections accepted");
  return c;
}

/// The mha_serve_* counters now. They count whether or not metrics are
/// enabled, so Server::stats() is a view of them.
Server::Stats counterStats() {
  return {connectionsCounter().value(),     admittedCounter().value(),
          rejectedCounter("busy").value(),  rejectedCounter("shutdown").value(),
          completedCounter(true).value(),   completedCounter(false).value(),
          cancelledCounter().value()};
}

int64_t elapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

} // namespace

struct Server::Conn {
  int fd = -1;
  /// Serializes writes; also guards `alive` so a write never races the
  /// reader marking the connection dead.
  std::mutex writeMutex;
  bool alive = true;
  /// Admitted requests from this connection (guarded by Server::mutex_).
  std::vector<std::shared_ptr<Pending>> active;
  /// Set by the reader as its last step (guarded by Server::mutex_): the
  /// accept loop may join the reader and drop the connection.
  bool finished = false;

  ~Conn() {
    if (fd >= 0)
      ::close(fd);
  }
};

struct Server::Pending {
  Request req;
  std::shared_ptr<Conn> conn;
  std::atomic<bool> cancel{false};
  /// Guarded by Server::mutex_ (targets of `cancel` requests must be
  /// findable, finished ones must not be).
  bool done = false;
  std::chrono::steady_clock::time_point admitted;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), base_(counterStats()) {
  if (options_.maxInflight < 1)
    options_.maxInflight = 1;
  if (options_.maxQueue < 0)
    options_.maxQueue = 0;
}

Server::~Server() {
  stop();
  if (wakeRead_ >= 0)
    ::close(wakeRead_);
  if (wakeWrite_ >= 0)
    ::close(wakeWrite_);
}

bool Server::start(std::string *error) {
  auto fail = [&](const std::string &message) {
    if (error)
      *error = message;
    if (listenFd_ >= 0) {
      ::close(listenFd_);
      listenFd_ = -1;
    }
    return false;
  };
  if (running_.load())
    return fail("server already running");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socketPath.empty() ||
      options_.socketPath.size() >= sizeof(addr.sun_path))
    return fail(strfmt("socket path too long (max %zu bytes)",
                       sizeof(addr.sun_path) - 1));
  std::memcpy(addr.sun_path, options_.socketPath.c_str(),
              options_.socketPath.size() + 1);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0)
    return fail(strfmt("socket: %s", std::strerror(errno)));
  ::unlink(options_.socketPath.c_str());
  if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0)
    return fail(strfmt("bind %s: %s", options_.socketPath.c_str(),
                       std::strerror(errno)));
  if (::listen(listenFd_, 64) != 0)
    return fail(strfmt("listen: %s", std::strerror(errno)));

  if (wakeRead_ < 0) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
      return fail(strfmt("pipe2: %s", std::strerror(errno)));
    // Non-blocking write end: notifyFromSignal() must never block inside
    // a signal handler, even if the pipe is (impossibly) full.
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
  }

  flow::StageCache::global().setLimitBytes(options_.stageCacheLimitBytes);

  pool_ = std::make_unique<ThreadPool>(
      static_cast<unsigned>(options_.maxInflight));
  shuttingDown_.store(false);
  running_.store(true);
  elog::info("serve", "listening",
             {{"socket", options_.socketPath},
              {"max_inflight", strfmt("%d", options_.maxInflight)},
              {"max_queue", strfmt("%d", options_.maxQueue)}});
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestStop() {
  shuttingDown_.store(true);
  notifyFromSignal();
}

void Server::notifyFromSignal() {
  // Async-signal-safe: one write(2), errors ignored (the pipe being full
  // already means a wake-up is pending).
  if (wakeWrite_ >= 0) {
    char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &byte, 1);
  }
}

void Server::wait() {
  if (acceptThread_.joinable())
    acceptThread_.join();
}

void Server::stop() {
  requestStop();
  wait();
}

bool Server::running() const { return running_.load(); }

Server::Stats Server::stats() const {
  Stats s = counterStats();
  for (int64_t Stats::*field :
       {&Stats::connections, &Stats::admitted, &Stats::rejectedBusy,
        &Stats::rejectedShutdown, &Stats::completedOk, &Stats::completedError,
        &Stats::cancelled})
    s.*field -= base_.*field;
  return s;
}

int64_t Server::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_;
}

void Server::emitTo(const std::shared_ptr<Conn> &conn,
                    const std::string &line) {
  std::lock_guard<std::mutex> lock(conn->writeMutex);
  if (!conn->alive)
    return;
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(conn->fd, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR)
        continue;
      // Client went away mid-write; the reader will notice EOF and cancel
      // this connection's outstanding work.
      conn->alive = false;
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

void Server::acceptLoop() {
  while (true) {
    pollfd fds[2] = {{wakeRead_, POLLIN, 0}, {listenFd_, POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if ((fds[0].revents & POLLIN) || shuttingDown_.load())
      break;
    if (!(fds[1].revents & POLLIN))
      continue;
    int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0)
      continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    ++connectionsCounter();
    // Take the readers whose client has gone out of the set, and join them
    // outside the lock (each has nothing left to do but return).
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto done = std::partition(
          readers_.begin(), readers_.end(),
          [](const Reader &reader) { return !reader.conn->finished; });
      for (auto it = done; it != readers_.end(); ++it)
        finished.push_back(std::move(it->thread));
      readers_.erase(done, readers_.end());
      readers_.push_back(
          {conn, std::thread([this, conn] { readerLoop(conn); })});
    }
    for (std::thread &reader : finished)
      reader.join();
  }
  shuttingDown_.store(true);
  drainAndJoin();
}

void Server::readerLoop(std::shared_ptr<Conn> conn) {
  std::string buffer;
  char chunk[64 << 10];
  while (true) {
    ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0)
      break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t eol = buffer.find('\n', start); eol != std::string::npos;
         eol = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, eol - start);
      start = eol + 1;
      if (!line.empty() && line.back() == '\r')
        line.pop_back();
      if (!line.empty())
        handleLine(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      emitTo(conn, renderError("", errc::ParseError,
                               "request line exceeds size limit"));
      break;
    }
  }
  // Disconnect: stop writes, then cancel everything this client still has
  // outstanding — nobody is listening for the results.
  {
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    conn->alive = false;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Pending> &pending : conn->active)
    if (!pending->done)
      pending->cancel.store(true);
  conn->finished = true;
}

void Server::handleLine(const std::shared_ptr<Conn> &conn,
                        const std::string &line) {
  telemetry::Span parseSpan("serve:parse", "serve");
  ParsedRequest parsed = parseRequest(line);
  parseSpan.finish();
  if (!parsed.ok) {
    emitTo(conn, renderError(parsed.request.id, parsed.errorCode,
                             parsed.errorMessage));
    emitTo(conn, renderDone(parsed.request.id, false, parsed.errorCode,
                            false, 0, 0));
    return;
  }
  const Request &req = parsed.request;

  switch (req.type) {
  case RequestType::Ping:
    emitTo(conn, renderPong(req.id));
    return;
  case RequestType::Shutdown: {
    emitTo(conn, renderShutdownAck(req.id));
    elog::info("serve", "shutdown requested by client");
    requestStop();
    return;
  }
  case RequestType::Cancel: {
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const std::shared_ptr<Pending> &pending : conn->active) {
        if (!pending->done && pending->req.id == req.id) {
          pending->cancel.store(true);
          found = true;
        }
      }
    }
    emitTo(conn, renderCancelAck(req.id, found));
    return;
  }
  case RequestType::Compile:
    break;
  }

  std::shared_ptr<Pending> pending;
  int64_t queueDepth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shuttingDown_.load()) {
      ++rejectedCounter("shutdown");
      emitTo(conn, renderError(req.id, errc::ShuttingDown,
                               "server is shutting down"));
      emitTo(conn, renderDone(req.id, false, errc::ShuttingDown, false, 0, 0));
      return;
    }
    if (outstanding_ >=
        static_cast<int64_t>(options_.maxInflight) + options_.maxQueue) {
      ++rejectedCounter("busy");
      emitTo(conn,
             renderError(req.id, errc::Busy,
                         strfmt("server at capacity (%lld outstanding)",
                                static_cast<long long>(outstanding_))));
      emitTo(conn, renderDone(req.id, false, errc::Busy, false, 0, 0));
      return;
    }
    ++admittedCounter();
    outstanding_++;
    pending = std::make_shared<Pending>();
    pending->req = req;
    pending->conn = conn;
    pending->admitted = std::chrono::steady_clock::now();
    conn->active.push_back(pending);
    queueDepth = outstanding_ - inflightGauge().value();
    queueGauge().set(queueDepth > 0 ? queueDepth : 0);
  }
  // `accepted` is emitted before the worker can start so it always
  // precedes the first `stage` event.
  emitTo(conn, renderAccepted(req.id, queueDepth));
  pool_->submit([this, pending] { runPending(pending); });
}

void Server::runPending(std::shared_ptr<Pending> pending) {
  const Request &req = pending->req;
  telemetry::Span span("serve:request", "serve",
                       {{"id", req.id},
                        {"kernel", req.kernel.empty() ? "<inline>"
                                                      : req.kernel}});
  int64_t queueUs = elapsedUs(pending->admitted);
  inflightGauge().add(1);

  SessionOutcome outcome;
  int64_t compileUs = 0;
  if (pending->cancel.load(std::memory_order_relaxed)) {
    // Cancelled while still queued: the flow never starts.
    outcome.code = errc::Cancelled;
    emitTo(pending->conn,
           renderError(req.id, errc::Cancelled,
                       "request cancelled before compilation started"));
  } else {
    telemetry::Span compile("serve:compile", "serve");
    Emit emit = [this, pending](const std::string &line) {
      emitTo(pending->conn, line);
    };
    outcome = runSession(req, options_.session, &pending->cancel, emit);
    compileUs = std::llround(compile.finish() * 1000.0);
  }
  emitTo(pending->conn, renderDone(req.id, outcome.ok, outcome.code,
                                   outcome.cached, queueUs, compileUs));

  inflightGauge().add(-1);
  requestHistogram().record(elapsedUs(pending->admitted));
  ++completedCounter(outcome.ok);
  bool cancelled = outcome.code == errc::Cancelled;
  if (cancelled)
    ++cancelledCounter();
  elog::debug("serve", "request done",
              {{"id", req.id},
               {"status", outcome.ok ? "ok" : outcome.code},
               {"cached", outcome.cached ? "true" : "false"}});

  std::lock_guard<std::mutex> lock(mutex_);
  pending->done = true;
  outstanding_--;
  auto &active = pending->conn->active;
  for (size_t i = 0; i < active.size(); ++i) {
    if (active[i] == pending) {
      active.erase(active.begin() + i);
      break;
    }
  }
  int64_t queueDepth = outstanding_ - inflightGauge().value();
  queueGauge().set(queueDepth > 0 ? queueDepth : 0);
  if (outstanding_ == 0)
    drained_.notify_all();
}

void Server::drainAndJoin() {
  ::close(listenFd_);
  listenFd_ = -1;

  // Drain within the deadline, then cancel what remains and wait for it
  // to unwind at the next stage boundary.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait_for(lock, std::chrono::milliseconds(options_.drainMs),
                      [this] { return outstanding_ == 0; });
    if (outstanding_ != 0) {
      elog::warn("serve", "drain deadline passed, cancelling outstanding",
                 {{"outstanding", strfmt("%lld", static_cast<long long>(
                                                     outstanding_))}});
      for (const Reader &reader : readers_)
        for (const std::shared_ptr<Pending> &pending : reader.conn->active)
          if (!pending->done)
            pending->cancel.store(true);
      drained_.wait(lock, [this] { return outstanding_ == 0; });
    }
  }

  // Unblock and join every connection reader.
  std::vector<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    readers.swap(readers_);
  }
  for (const Reader &reader : readers) {
    std::lock_guard<std::mutex> lock(reader.conn->writeMutex);
    reader.conn->alive = false;
    ::shutdown(reader.conn->fd, SHUT_RDWR);
  }
  for (Reader &reader : readers)
    reader.thread.join();

  pool_->wait();
  pool_.reset();

  // Drain any pending wake bytes so a restarted server does not see a
  // stale shutdown request.
  char drainBuf[16];
  ::fcntl(wakeRead_, F_SETFL, O_NONBLOCK);
  while (::read(wakeRead_, drainBuf, sizeof(drainBuf)) > 0) {
  }

  ::unlink(options_.socketPath.c_str());
  running_.store(false);
  elog::info("serve", "stopped");
}

} // namespace mha::serve
