#include "serve/Client.h"

#include "flow/Kernels.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mha::serve {

namespace {

void setError(std::string *error, std::string message) {
  if (error)
    *error = std::move(message);
}

std::string field(const json::Value &doc, const char *name) {
  const json::Value *value = doc.get(name);
  return value && value->isString() ? value->asString() : std::string();
}

/// An absent field reads 0; a present one must be an integer in int64
/// range (empty otherwise).
std::optional<int64_t> intField(const json::Value &doc, const char *name) {
  const json::Value *value = doc.get(name);
  return value ? value->asInt() : 0;
}

bool boolField(const json::Value &doc, const char *name) {
  const json::Value *value = doc.get(name);
  return value && value->isBool() && value->asBool();
}

} // namespace

Client::~Client() { close(); }

bool Client::connect(const std::string &socketPath, std::string *error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.empty() || socketPath.size() >= sizeof(addr.sun_path)) {
    setError(error, "socket path too long");
    return false;
  }
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    setError(error, strfmt("socket: %s", std::strerror(errno)));
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
    setError(error, strfmt("connect %s: %s", socketPath.c_str(),
                           std::strerror(errno)));
    close();
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::sendLine(const std::string &line, std::string *error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return false;
  }
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR)
        continue;
      setError(error, strfmt("send: %s", std::strerror(errno)));
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Client::readLine(std::string &line, std::string *error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return false;
  }
  while (true) {
    size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return true;
    }
    char chunk[64 << 10];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0) {
      setError(error, n == 0 ? "connection closed"
                             : strfmt("read: %s", std::strerror(errno)));
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Client::CompileOutcome Client::runCompile(const Request &req) {
  CompileOutcome outcome;
  std::string error;
  if (!sendLine(renderCompileRequest(req.id, req), &error)) {
    outcome.error = error;
    return outcome;
  }
  std::string line;
  while (readLine(line, &error)) {
    std::optional<json::Value> doc = json::parse(line);
    if (!doc || !doc->isObject()) {
      outcome.error = "malformed response line: " + line;
      return outcome;
    }
    if (field(*doc, "id") != req.id)
      continue;
    std::string event = field(*doc, "event");
    if (event == "stage") {
      outcome.stages.push_back(field(*doc, "stage"));
    } else if (event == "result") {
      outcome.resultLine = line;
    } else if (event == "error") {
      outcome.code = field(*doc, "code");
      outcome.error = field(*doc, "message");
    } else if (event == "done") {
      std::optional<int64_t> queueUs = intField(*doc, "queue_us");
      std::optional<int64_t> compileUs = intField(*doc, "compile_us");
      if (!queueUs || !compileUs) {
        outcome.error = "malformed response line: " + line;
        return outcome;
      }
      outcome.transportOk = true;
      outcome.ok = field(*doc, "status") == "ok";
      if (std::string code = field(*doc, "code"); !code.empty())
        outcome.code = code;
      outcome.cached = boolField(*doc, "cached");
      outcome.queueUs = *queueUs;
      outcome.compileUs = *compileUs;
      return outcome;
    }
  }
  outcome.error = error;
  return outcome;
}

bool Client::awaitEvent(const std::string &event, const std::string &id,
                        std::optional<json::Value> &docOut) {
  std::string line;
  while (readLine(line)) {
    std::optional<json::Value> doc = json::parse(line);
    if (!doc)
      return false;
    if (field(*doc, "event") == event && field(*doc, "id") == id) {
      docOut = std::move(doc);
      return true;
    }
  }
  return false;
}

bool Client::ping(const std::string &id) {
  std::optional<json::Value> doc;
  return sendLine(renderAdminRequest(id, RequestType::Ping)) &&
         awaitEvent("pong", id, doc);
}

bool Client::shutdown(const std::string &id) {
  std::optional<json::Value> doc;
  return sendLine(renderAdminRequest(id, RequestType::Shutdown)) &&
         awaitEvent("shutdown_ack", id, doc);
}

bool Client::cancel(const std::string &targetId, bool *found) {
  std::optional<json::Value> doc;
  if (!sendLine(renderAdminRequest(targetId, RequestType::Cancel)) ||
      !awaitEvent("cancel_ack", targetId, doc))
    return false;
  if (found)
    *found = boolField(*doc, "found");
  return true;
}

Request slowBlockerRequest(const std::string &id) {
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 1024;
  config.partitionFactor = 1024;
  Request req;
  req.id = id;
  req.mlir = flow::replicatedKernelMlir(
      flow::makeLongTripFir("blocker", 4096, {0.3125, 0.5625, 0.8125}),
      config, /*copies=*/6);
  req.top = "blocker_0"; // multi-function inline MLIR needs an explicit top
  return req;
}

} // namespace mha::serve
