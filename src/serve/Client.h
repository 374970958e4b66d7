// Client.h - blocking NDJSON client for the mha-serve socket.
//
// Thin by design: connect, send request lines, read response lines. The
// one conveniences layered on top are runCompile() — send one compile
// request and collect its event stream through the terminal `done` —
// and ping()/shutdown() for the admin round-trips. mha-client, the serve
// tests and the throughput bench all drive the daemon through this class,
// so the protocol has exactly one client-side framing implementation.
#pragma once

#include "serve/Protocol.h"
#include "support/Json.h"

#include <optional>
#include <string>
#include <vector>

namespace mha::serve {

class Client {
public:
  Client() = default;
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(const std::string &socketPath, std::string *error = nullptr);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request line (newline appended). False on I/O failure.
  bool sendLine(const std::string &line, std::string *error = nullptr);

  /// Blocks for the next response line (newline stripped). False on EOF
  /// or I/O failure.
  bool readLine(std::string &line, std::string *error = nullptr);

  /// One compile request, start to finish.
  struct CompileOutcome {
    /// The transport survived (request written, `done` or a terminal
    /// error received). When false, `error` says what broke.
    bool transportOk = false;
    /// done.status == "ok".
    bool ok = false;
    /// done.code / error code ("" on success).
    std::string code;
    /// done.cached — the whole-pipeline warm-hit flag.
    bool cached = false;
    int64_t queueUs = 0;
    int64_t compileUs = 0;
    /// Stage names in arrival order ("mlirOpt", "bridge", "synth").
    std::vector<std::string> stages;
    /// The raw `result` line (byte-deterministic; empty on failure) —
    /// what warm-vs-cold equivalence checks byte-compare.
    std::string resultLine;
    /// error event's message (empty on success), or transport error.
    std::string error;
  };

  /// Sends `req` and consumes events until its `done` arrives. Events
  /// for other ids (a multiplexing caller's business) are dropped.
  CompileOutcome runCompile(const Request &req);

  /// Admin round-trips: true when the matching ack arrived. Intervening
  /// events for other requests are read past and dropped — callers
  /// interleaving admin and compile traffic on one connection should use
  /// sendLine/readLine directly.
  bool ping(const std::string &id = "ping");
  bool shutdown(const std::string &id = "shutdown");
  bool cancel(const std::string &targetId, bool *found = nullptr);

private:
  bool awaitEvent(const std::string &event, const std::string &id,
                  std::optional<json::Value> &docOut);

  int fd_ = -1;
  std::string buffer_;
};

/// A compile request that keeps one worker busy for well over half a
/// second (about a second on one 2020s x86 core), nearly all of it in the
/// synth stage: an inline module of several copies of a 4096-trip FIR
/// loop pipelined at II=1 and unrolled 1024 ways. Admission tests and the
/// overload bench send it first, wait for its first stage event and only
/// then queue more work, so that work meets a busy worker even on one CPU.
Request slowBlockerRequest(const std::string &id);

} // namespace mha::serve
