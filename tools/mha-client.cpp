// mha-client - command-line client for the mha-serve daemon.
//
//   mha-client --socket=<path> --kernel=<name> [--flow=adaptor|hls-cpp]
//              [--ii=N] [--unroll=N] [--partition=N] [--dataflow]
//              [--no-directives] [--estimate] [--id=<id>] [--quiet]
//   mha-client --socket=<path> --mlir-file=<path> [--top=<fn>]
//              [--flow=adaptor|hls-cpp]
//   mha-client --socket=<path> --ping | --shutdown
//
// The design knobs apply to named kernels only: an inline module carries
// its own hls.* attributes, and the daemon answers a non-default knob
// with a typed bad_request.
//
// Sends one request over the daemon's Unix-domain socket and streams
// every response event line to stdout as it arrives (NDJSON, schema
// "mha.serve.resp.v1") — pipe through jq for a readable view. Exit
// status: 0 when the request finished ok (or the admin ack arrived),
// 1 on a typed server-side error, 2 on usage or transport failure.
// --quiet prints only the result/error event instead of the full stream.
#include "ObservabilityCli.h"

#include "serve/Client.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace mha;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mha-client --socket=<path> --kernel=<name> | --mlir-file=<p>\n"
      "                  [--top=<fn>] (with --mlir-file: the function to\n"
      "                  synthesize; required for multi-function modules)\n"
      "                  [--flow=adaptor|hls-cpp] [--ii=N] [--unroll=N]\n"
      "                  [--partition=N] [--dataflow] [--no-directives]\n"
      "                  [--estimate] [--id=<id>] [--quiet]\n"
      "       mha-client --socket=<path> --ping | --shutdown\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string socketPath, mlirFile, id = "cli";
  bool ping = false, shutdown = false, quiet = false;
  serve::Request req;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool knobOk = true;
    if (startsWith(arg, "--socket="))
      socketPath = arg.substr(9);
    else if (startsWith(arg, "--kernel="))
      req.kernel = arg.substr(9);
    else if (startsWith(arg, "--mlir-file="))
      mlirFile = arg.substr(12);
    else if (startsWith(arg, "--top="))
      req.top = arg.substr(6);
    else if (startsWith(arg, "--flow=")) {
      std::string flow = arg.substr(7);
      if (flow == "adaptor")
        req.flowKind = flow::FlowKind::Adaptor;
      else if (flow == "hls-cpp" || flow == "hls-c++")
        req.flowKind = flow::FlowKind::HlsCpp;
      else {
        std::fprintf(stderr, "unknown flow '%s'\n", flow.c_str());
        return usage();
      }
    } else if (parseKnobFlag(arg, req.config, knobOk)) {
      if (!knobOk)
        return usage();
    } else if (arg == "--estimate")
      req.estimate = true;
    else if (startsWith(arg, "--id="))
      id = arg.substr(5);
    else if (arg == "--ping")
      ping = true;
    else if (arg == "--shutdown")
      shutdown = true;
    else if (arg == "--quiet")
      quiet = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    }
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return usage();
  }
  int modes = (ping ? 1 : 0) + (shutdown ? 1 : 0) +
              (!req.kernel.empty() || !mlirFile.empty() ? 1 : 0);
  if (modes != 1 || (!req.kernel.empty() && !mlirFile.empty())) {
    std::fprintf(stderr,
                 "exactly one of --kernel, --mlir-file, --ping, "
                 "--shutdown is required\n");
    return usage();
  }
  if (id.empty()) {
    std::fprintf(stderr, "--id must be non-empty\n");
    return usage();
  }
  if (!req.top.empty() && mlirFile.empty()) {
    std::fprintf(stderr, "--top requires --mlir-file\n");
    return usage();
  }

  if (!mlirFile.empty()) {
    std::ifstream in(mlirFile);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", mlirFile.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    req.mlir = text.str();
  }

  serve::Client client;
  std::string error;
  if (!client.connect(socketPath, &error)) {
    std::fprintf(stderr, "mha-client: %s\n", error.c_str());
    return 2;
  }

  if (ping) {
    if (!client.ping(id)) {
      std::fprintf(stderr, "mha-client: ping failed\n");
      return 2;
    }
    std::printf("pong\n");
    return 0;
  }
  if (shutdown) {
    if (!client.shutdown(id)) {
      std::fprintf(stderr, "mha-client: shutdown request failed\n");
      return 2;
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }

  // Compile: stream every event for our id as it arrives.
  req.id = id;
  if (!client.sendLine(serve::renderCompileRequest(id, req), &error)) {
    std::fprintf(stderr, "mha-client: %s\n", error.c_str());
    return 2;
  }
  std::string line;
  while (client.readLine(line, &error)) {
    std::optional<json::Value> doc = json::parseShallow(line);
    if (!doc) {
      std::fprintf(stderr, "mha-client: malformed response: %s\n",
                   line.c_str());
      return 2;
    }
    const json::Value *eventField = doc->get("event");
    std::string event =
        eventField && eventField->isString() ? eventField->asString() : "";
    if (!quiet || event == "result" || event == "error")
      std::printf("%s\n", line.c_str());
    if (event == "done") {
      const json::Value *status = doc->get("status");
      bool ok = status && status->isString() && status->asString() == "ok";
      return ok ? 0 : 1;
    }
  }
  std::fprintf(stderr, "mha-client: %s\n", error.c_str());
  return 2;
}
