// serve_test.cpp - the mha-serve daemon: protocol parsing, admission
// control, session isolation, cancellation, warm-cache equivalence and
// graceful shutdown, all against a real in-process Server on a real
// Unix-domain socket.

#include "flow/Kernels.h"
#include "flow/StageCache.h"
#include "mir/MContext.h"
#include "mir/Printer.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mha;
using namespace mha::serve;

namespace {

/// Short unique socket path in /tmp (sun_path is ~108 bytes; the ctest
/// working directory can easily exceed that).
std::string testSocketPath() {
  static std::atomic<int> counter{0};
  return strfmt("/tmp/mha_serve_test_%d_%d.sock", static_cast<int>(getpid()),
                counter.fetch_add(1));
}

ServerOptions testOptions(const std::string &socket, int maxInflight = 2,
                          int maxQueue = 8) {
  ServerOptions options;
  options.socketPath = socket;
  options.maxInflight = maxInflight;
  options.maxQueue = maxQueue;
  return options;
}

Request compileRequest(const std::string &id, const std::string &kernel,
                       int64_t ii = 1) {
  Request req;
  req.id = id;
  req.kernel = kernel;
  req.config.pipelineII = ii;
  return req;
}

/// The printed mir text of a built-in kernel — a known-good inline-MLIR
/// payload whose top function name collides across requests.
std::string kernelMlirText(const std::string &kernel, int64_t unroll) {
  const flow::KernelSpec *spec = flow::findKernel(kernel);
  EXPECT_NE(spec, nullptr);
  mir::MContext ctx;
  flow::KernelConfig config;
  config.unrollFactor = unroll;
  mir::OwnedModule module = spec->build(ctx, config);
  return mir::printModule(module.get());
}

/// Renamed copies of conv2d (@conv2d_0, @conv2d_1, ...) in one inline
/// module: a known-good multi-function payload.
std::string replicatedKernelMlir(int copies) {
  flow::KernelConfig config;
  config.unrollFactor = 32;
  return flow::replicatedKernelMlir(*flow::findKernel("conv2d"), config,
                                    copies);
}

int64_t jsonInt(const std::string &line, const char *field) {
  std::optional<json::Value> doc = json::parse(line);
  EXPECT_TRUE(doc.has_value()) << line;
  const json::Value *value = doc->get(field);
  return value ? value->asInt().value_or(-1) : -1;
}

} // namespace

// --- Protocol parsing ---------------------------------------------------

TEST(ServeProtocol, ParsesCanonicalCompileRequest) {
  Request req = compileRequest("r1", "gemm", 2);
  req.config.unrollFactor = 4;
  req.config.dataflow = true;
  ParsedRequest parsed = parseRequest(renderCompileRequest("r1", req));
  ASSERT_TRUE(parsed.ok) << parsed.errorMessage;
  EXPECT_EQ(parsed.request.id, "r1");
  EXPECT_EQ(parsed.request.kernel, "gemm");
  EXPECT_EQ(parsed.request.config.pipelineII, 2);
  EXPECT_EQ(parsed.request.config.unrollFactor, 4);
  EXPECT_TRUE(parsed.request.config.dataflow);
  EXPECT_EQ(parsed.request.type, RequestType::Compile);
}

TEST(ServeProtocol, RejectsMalformedJson) {
  ParsedRequest parsed = parseRequest("{\"schema\": ");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.errorCode, errc::ParseError);
}

TEST(ServeProtocol, RejectsUnknownFieldsButRecoversId) {
  ParsedRequest parsed = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"r9\", \"type\": "
      "\"compile\", \"kernel\": \"fir\", \"frobnicate\": 1}");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.errorCode, errc::BadRequest);
  EXPECT_EQ(parsed.request.id, "r9");
  EXPECT_NE(parsed.errorMessage.find("frobnicate"), std::string::npos);
}

TEST(ServeProtocol, RejectsOversizedInlineMlir) {
  Request req;
  req.id = "big";
  req.mlir = std::string(kMaxInlineMlirBytes + 1, 'x');
  ParsedRequest parsed = parseRequest(renderCompileRequest("big", req));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.errorCode, errc::BadRequest);
  EXPECT_NE(parsed.errorMessage.find("too large"), std::string::npos);
}

TEST(ServeProtocol, RejectsKernelAndMlirTogetherOrNeither) {
  ParsedRequest both = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"b\", \"type\": "
      "\"compile\", \"kernel\": \"fir\", \"mlir\": \"module {}\"}");
  EXPECT_FALSE(both.ok);
  ParsedRequest neither = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"n\", \"type\": "
      "\"compile\"}");
  EXPECT_FALSE(neither.ok);
}

TEST(ServeProtocol, RejectsOutOfRangeKnobsAndWrongTypes) {
  EXPECT_FALSE(parseRequest("{\"schema\": \"mha.serve.req.v1\", \"id\": "
                            "\"k\", \"type\": \"compile\", \"kernel\": "
                            "\"fir\", \"ii\": -1}")
                   .ok);
  EXPECT_FALSE(parseRequest("{\"schema\": \"mha.serve.req.v1\", \"id\": "
                            "\"k\", \"type\": \"compile\", \"kernel\": "
                            "\"fir\", \"unroll\": 1.5}")
                   .ok);
  EXPECT_FALSE(parseRequest("{\"schema\": \"mha.serve.req.v1\", \"id\": "
                            "\"k\", \"type\": \"compile\", \"kernel\": "
                            "\"fir\", \"estimate\": \"yes\"}")
                   .ok);
}

TEST(ServeProtocol, RejectsForeignSchemaAndAdminPayloads) {
  EXPECT_FALSE(parseRequest("{\"schema\": \"mha.other.v1\", \"id\": \"s\", "
                            "\"type\": \"ping\"}")
                   .ok);
  EXPECT_FALSE(parseRequest("{\"schema\": \"mha.serve.req.v1\", \"id\": "
                            "\"p\", \"type\": \"ping\", \"kernel\": "
                            "\"fir\"}")
                   .ok);
}

TEST(ServeProtocol, TopFieldRoundTripsThroughCanonicalRequest) {
  Request req;
  req.id = "t";
  req.mlir = "module {}";
  req.top = "gemm_tile";
  ParsedRequest parsed = parseRequest(renderCompileRequest("t", req));
  ASSERT_TRUE(parsed.ok) << parsed.errorMessage;
  EXPECT_EQ(parsed.request.top, "gemm_tile");
  EXPECT_EQ(parsed.request.mlir, "module {}");
}

TEST(ServeProtocol, RejectsTopWithoutMlirOrEmptyOrOnAdmin) {
  // 'top' only makes sense for inline-mlir compiles: a named kernel
  // defines its own top, and admin requests carry no payload at all.
  ParsedRequest withKernel = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"k\", \"type\": "
      "\"compile\", \"kernel\": \"fir\", \"top\": \"fir\"}");
  EXPECT_FALSE(withKernel.ok);
  EXPECT_EQ(withKernel.errorCode, errc::BadRequest);
  ParsedRequest empty = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"e\", \"type\": "
      "\"compile\", \"mlir\": \"module {}\", \"top\": \"\"}");
  EXPECT_FALSE(empty.ok);
  ParsedRequest onPing = parseRequest(
      "{\"schema\": \"mha.serve.req.v1\", \"id\": \"p\", \"type\": "
      "\"ping\", \"top\": \"f\"}");
  EXPECT_FALSE(onPing.ok);
}

TEST(ServeProtocol, EveryRenderedEventValidatesAsJson) {
  Request req = compileRequest("r", "fir");
  flow::FlowResult result;
  result.kernelName = "fir";
  for (const std::string &line :
       {renderAccepted("r", 3), renderStage("r", "synth"),
        renderResult("r", req, result),
        renderEstimateResult("r", req, 100, 1, 2, 3, 4),
        renderError("r", errc::UnknownKernel, "nope", true),
        renderDone("r", true, "", true, 10, 20), renderPong("r"),
        renderCancelAck("r", false), renderShutdownAck("r"),
        renderCompileRequest("r", req),
        renderAdminRequest("r", RequestType::Cancel)}) {
    std::string error;
    EXPECT_TRUE(json::validate(line, &error)) << error << "\n" << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  }
}

TEST(ServeProtocol, InlineKernelNameIsContentAddressed) {
  EXPECT_EQ(inlineKernelName("module {}"), inlineKernelName("module {}"));
  EXPECT_NE(inlineKernelName("module {}"), inlineKernelName("module { }"));
  EXPECT_TRUE(startsWith(inlineKernelName("x"), "inline-"));
  // The shared 64-bit FNV-1a of the text, as 16 hex digits.
  for (const char *text : {"", "x", "module {}"})
    EXPECT_EQ(inlineKernelName(text),
              strfmt("inline-%016llx", static_cast<unsigned long long>(
                                           hashString(text))));
  EXPECT_EQ(inlineKernelName(""), "inline-cbf29ce484222325");
}

TEST(JsonCompact, StripsWhitespaceOutsideStringsOnly) {
  EXPECT_EQ(json::compact("{ \"a\" : [ 1 , 2 ] ,\n \"b\" : \"x y\\\" z\" }"),
            "{\"a\":[1,2],\"b\":\"x y\\\" z\"}");
}

// --- Server behaviour ---------------------------------------------------

TEST(ServeServer, WarmCompileIsByteIdenticalAndCached) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());

  Client client;
  ASSERT_TRUE(client.connect(socket));
  Client::CompileOutcome cold = client.runCompile(compileRequest("c", "fir"));
  ASSERT_TRUE(cold.transportOk) << cold.error;
  EXPECT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(cold.stages,
            (std::vector<std::string>{"mlirOpt", "bridge", "synth"}));

  Client::CompileOutcome warm = client.runCompile(compileRequest("w", "fir"));
  ASSERT_TRUE(warm.transportOk) << warm.error;
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  // The result event is deterministic: only the ids differ.
  std::string coldLine = cold.resultLine, warmLine = warm.resultLine;
  size_t coldId = coldLine.find("\"id\": \"c\"");
  size_t warmId = warmLine.find("\"id\": \"w\"");
  ASSERT_NE(coldId, std::string::npos);
  ASSERT_NE(warmId, std::string::npos);
  coldLine.replace(coldId, 9, "\"id\": \"X\"");
  warmLine.replace(warmId, 9, "\"id\": \"X\"");
  EXPECT_EQ(coldLine, warmLine);

  server.stop();
  EXPECT_EQ(server.stats().completedOk, 2);
}

TEST(ServeServer, ConcurrentSessionsWithSameKernelNameStayIsolated) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket, /*maxInflight=*/2));
  ASSERT_TRUE(server.start());

  // Two inline modules whose top function is named "conv2d" in both, but
  // with different unroll directives — distinct designs with distinct
  // latencies. Run them concurrently; each client must get its own
  // report back.
  std::string mlirA = kernelMlirText("conv2d", 1);
  std::string mlirB = kernelMlirText("conv2d", 2);
  ASSERT_NE(mlirA, mlirB);

  Client::CompileOutcome outcomeA, outcomeB;
  std::thread threadA([&] {
    Client client;
    ASSERT_TRUE(client.connect(socket));
    Request req;
    req.id = "a";
    req.mlir = mlirA;
    outcomeA = client.runCompile(req);
  });
  std::thread threadB([&] {
    Client client;
    ASSERT_TRUE(client.connect(socket));
    Request req;
    req.id = "b";
    req.mlir = mlirB;
    outcomeB = client.runCompile(req);
  });
  threadA.join();
  threadB.join();
  ASSERT_TRUE(outcomeA.transportOk) << outcomeA.error;
  ASSERT_TRUE(outcomeB.transportOk) << outcomeB.error;
  EXPECT_TRUE(outcomeA.ok);
  EXPECT_TRUE(outcomeB.ok);
  // Different designs, different QoR; and each result names its own
  // content-addressed inline kernel, so the reports cannot be swapped.
  EXPECT_NE(jsonInt(outcomeA.resultLine, "latency_cycles"),
            jsonInt(outcomeB.resultLine, "latency_cycles"));
  EXPECT_NE(outcomeA.resultLine.find(inlineKernelName(mlirA)),
            std::string::npos);
  EXPECT_NE(outcomeB.resultLine.find(inlineKernelName(mlirB)),
            std::string::npos);
  server.stop();
}

TEST(ServeServer, QueueFullReturnsTypedBusy) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  // One worker, one queue slot: blocker runs, filler queues, the third
  // must be rejected with `busy` (admission counts outstanding work —
  // admitted but not yet done — so the outcome is exact once the blocker
  // is known to occupy the worker).
  Server server(testOptions(socket, /*maxInflight=*/1, /*maxQueue=*/1));
  ASSERT_TRUE(server.start());

  Client client;
  ASSERT_TRUE(client.connect(socket));
  ASSERT_TRUE(client.sendLine(
      renderCompileRequest("blocker", slowBlockerRequest("blocker"))));
  // Wait until the worker is demonstrably inside the blocker's flow (its
  // first stage event) before queueing more work: the blocker still has
  // hundreds of milliseconds to run, so both follow-up lines are admitted
  // or rejected while it holds the only worker.
  std::string line;
  do {
    ASSERT_TRUE(client.readLine(line));
  } while (line.find("\"event\": \"stage\"") == std::string::npos);
  ASSERT_TRUE(client.sendLine(
      renderCompileRequest("filler", compileRequest("filler", "fir"))));
  ASSERT_TRUE(client.sendLine(
      renderCompileRequest("third", compileRequest("third", "fir"))));

  // Collect every event until all three requests reach `done`.
  std::map<std::string, std::string> doneCode;
  std::map<std::string, std::vector<std::string>> events;
  while (doneCode.size() < 3 && client.readLine(line)) {
    std::optional<json::Value> doc = json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    std::string id = doc->get("id")->asString();
    std::string event = doc->get("event")->asString();
    events[id].push_back(event);
    if (event == "done") {
      const json::Value *code = doc->get("code");
      doneCode[id] = code && code->isString() ? code->asString() : "";
    }
  }
  EXPECT_EQ(doneCode["blocker"], "");
  EXPECT_EQ(doneCode["filler"], "");
  EXPECT_EQ(doneCode["third"], errc::Busy);
  // The rejected request got error -> done and never an accepted event.
  EXPECT_EQ(events["third"],
            (std::vector<std::string>{"error", "done"}));
  server.stop();
  Server::Stats stats = server.stats();
  EXPECT_EQ(stats.rejectedBusy, 1);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completedOk, 2);
}

TEST(ServeServer, CancelWhileQueuedNeverStartsTheFlow) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket, /*maxInflight=*/1, /*maxQueue=*/4));
  ASSERT_TRUE(server.start());

  Client client;
  ASSERT_TRUE(client.connect(socket));
  ASSERT_TRUE(client.sendLine(
      renderCompileRequest("blocker", slowBlockerRequest("blocker"))));
  // As in QueueFullReturnsTypedBusy: only queue the victim once the
  // long-running blocker owns the single worker, so the cancel line is
  // processed while the victim is still waiting for a worker.
  std::string line;
  do {
    ASSERT_TRUE(client.readLine(line));
  } while (line.find("\"event\": \"stage\"") == std::string::npos);
  ASSERT_TRUE(client.sendLine(
      renderCompileRequest("victim", compileRequest("victim", "fir"))));
  ASSERT_TRUE(
      client.sendLine(renderAdminRequest("victim", RequestType::Cancel)));

  bool sawCancelAck = false, ackFound = false;
  std::map<std::string, std::string> doneCode;
  std::map<std::string, std::vector<std::string>> stages;
  while (doneCode.size() < 2 && client.readLine(line)) {
    std::optional<json::Value> doc = json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    std::string id = doc->get("id")->asString();
    std::string event = doc->get("event")->asString();
    if (event == "cancel_ack") {
      sawCancelAck = true;
      ackFound = doc->get("found")->asBool();
    } else if (event == "stage") {
      stages[id].push_back(doc->get("stage")->asString());
    } else if (event == "done") {
      const json::Value *code = doc->get("code");
      doneCode[id] = code && code->isString() ? code->asString() : "";
    }
  }
  EXPECT_TRUE(sawCancelAck);
  EXPECT_TRUE(ackFound);
  EXPECT_EQ(doneCode["blocker"], "");
  EXPECT_EQ(doneCode["victim"], errc::Cancelled);
  // Cancelled while queued: no stage of the victim's flow ever ran.
  EXPECT_TRUE(stages["victim"].empty());
  server.stop();
  EXPECT_EQ(server.stats().cancelled, 1);
}

TEST(ServeSession, PresetCancelFlagAbandonsAtFirstStageBoundary) {
  std::atomic<bool> cancel{true};
  std::vector<std::string> lines;
  SessionOutcome outcome =
      runSession(compileRequest("c", "fir"), SessionOptions{}, &cancel,
                 [&](const std::string &line) { lines.push_back(line); });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, errc::Cancelled);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find(errc::Cancelled), std::string::npos);
}

TEST(ServeSession, MultiFunctionModuleWithoutTopIsAmbiguous) {
  Request req;
  req.id = "amb";
  req.mlir = replicatedKernelMlir(2); // defines @conv2d_0 and @conv2d_1
  std::vector<std::string> lines;
  SessionOutcome outcome =
      runSession(req, SessionOptions{}, nullptr,
                 [&](const std::string &line) { lines.push_back(line); });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, errc::AmbiguousTop);
  // The single error event names the code and lists both candidates in a
  // structured array the client can retry from.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(errc::AmbiguousTop), std::string::npos);
  EXPECT_NE(lines[0].find("\"candidates\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"conv2d_0\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"conv2d_1\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(json::validate(lines[0], &error)) << error << "\n" << lines[0];
}

TEST(ServeSession, InlineModuleRejectsDesignKnobsByName) {
  // An inline module carries its own hls.* attributes, so the request's
  // knobs cannot apply. The wire format always carries every knob, so the
  // default values must pass and any other value must be refused.
  std::string mlir = kernelMlirText("fir", 1);
  auto roundTrip = [](const Request &req) {
    ParsedRequest parsed = parseRequest(renderCompileRequest(req.id, req));
    EXPECT_TRUE(parsed.ok) << parsed.errorMessage;
    return parsed.request;
  };
  auto session = [](const Request &req, std::vector<std::string> &lines) {
    return runSession(req, SessionOptions{}, nullptr,
                      [&](const std::string &line) { lines.push_back(line); });
  };

  Request plain;
  plain.id = "defaults";
  plain.mlir = mlir;
  std::vector<std::string> okLines;
  EXPECT_TRUE(session(roundTrip(plain), okLines).ok);

  const std::vector<std::pair<std::string, void (*)(flow::KernelConfig &)>>
      knobs = {
          {"ii", [](flow::KernelConfig &c) { c.pipelineII = 2; }},
          {"unroll", [](flow::KernelConfig &c) { c.unrollFactor = 4; }},
          {"partition", [](flow::KernelConfig &c) { c.partitionFactor = 2; }},
          {"dataflow", [](flow::KernelConfig &c) { c.dataflow = true; }},
          {"directives",
           [](flow::KernelConfig &c) { c.applyDirectives = false; }},
      };
  for (const auto &[knob, set] : knobs) {
    Request req = plain;
    req.id = "knob-" + knob;
    set(req.config);
    std::vector<std::string> lines;
    SessionOutcome outcome = session(roundTrip(req), lines);
    EXPECT_FALSE(outcome.ok) << knob;
    EXPECT_EQ(outcome.code, errc::BadRequest) << knob;
    ASSERT_EQ(lines.size(), 1u) << knob;
    EXPECT_NE(lines[0].find("'" + knob + " = "), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find("hls.*"), std::string::npos) << lines[0];
    std::string error;
    EXPECT_TRUE(json::validate(lines[0], &error)) << error;
  }
}

TEST(ServeSession, UnknownTopIsBadRequestWithCandidates) {
  Request req;
  req.id = "bad-top";
  req.mlir = replicatedKernelMlir(2);
  req.top = "conv2d_9";
  std::vector<std::string> lines;
  SessionOutcome outcome =
      runSession(req, SessionOptions{}, nullptr,
                 [&](const std::string &line) { lines.push_back(line); });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, errc::BadRequest);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("conv2d_9"), std::string::npos);
  EXPECT_NE(lines[0].find("\"candidates\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"conv2d_0\""), std::string::npos);
}

TEST(ServeServer, ExplicitTopCompilesMultiFunctionModuleDeterministically) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));

  Request req;
  req.id = "t1";
  req.mlir = replicatedKernelMlir(2);
  req.top = "conv2d_1";
  Client::CompileOutcome cold = client.runCompile(req);
  ASSERT_TRUE(cold.transportOk) << cold.error;
  EXPECT_TRUE(cold.ok) << cold.code;
  EXPECT_FALSE(cold.cached);

  req.id = "t2";
  Client::CompileOutcome warm = client.runCompile(req);
  ASSERT_TRUE(warm.transportOk) << warm.error;
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  // Byte-deterministic result: only the ids differ between cold and warm.
  std::string coldLine = cold.resultLine, warmLine = warm.resultLine;
  size_t coldId = coldLine.find("\"id\": \"t1\"");
  size_t warmId = warmLine.find("\"id\": \"t2\"");
  ASSERT_NE(coldId, std::string::npos);
  ASSERT_NE(warmId, std::string::npos);
  coldLine.replace(coldId, 10, "\"id\": \"X\"");
  warmLine.replace(warmId, 10, "\"id\": \"X\"");
  EXPECT_EQ(coldLine, warmLine);

  // The other function of the same module is a distinct design point:
  // same module text, different top, no cache collision.
  req.id = "t3";
  req.top = "conv2d_0";
  Client::CompileOutcome other = client.runCompile(req);
  ASSERT_TRUE(other.transportOk) << other.error;
  EXPECT_TRUE(other.ok);
  EXPECT_FALSE(other.cached);
  server.stop();
}

TEST(ServeServer, UnknownKernelErrorTeachesAvailableNames) {
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  Client::CompileOutcome outcome =
      client.runCompile(compileRequest("u", "frobnicate"));
  ASSERT_TRUE(outcome.transportOk) << outcome.error;
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, errc::UnknownKernel);

  // The raw error line carries the structured kernel list.
  Client client2;
  ASSERT_TRUE(client2.connect(socket));
  ASSERT_TRUE(client2.sendLine(
      renderCompileRequest("u2", compileRequest("u2", "frobnicate"))));
  std::string line;
  bool sawKernels = false;
  while (client2.readLine(line)) {
    if (line.find("\"error\"") != std::string::npos) {
      EXPECT_NE(line.find("available_kernels"), std::string::npos);
      EXPECT_NE(line.find("\"gemm\""), std::string::npos);
      sawKernels = true;
      break;
    }
  }
  EXPECT_TRUE(sawKernels);
  server.stop();
}

TEST(ServeServer, StatsAreTheServeCounterDeltas) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  // Read after construction, which registers every mha_serve_* counter.
  metrics::Registry &reg = metrics::Registry::global();
  auto counters = [&] {
    auto value = [&](const char *name, metrics::Labels labels = {}) {
      return reg.counter(name, "", std::move(labels)).value();
    };
    return std::vector<int64_t>{
        value("mha_serve_connections_total"),
        value("mha_serve_admitted_total"),
        value("mha_serve_rejected_total", {{"reason", "busy"}}),
        value("mha_serve_rejected_total", {{"reason", "shutdown"}}),
        value("mha_serve_completed_total", {{"status", "ok"}}),
        value("mha_serve_completed_total", {{"status", "error"}}),
        value("mha_serve_cancelled_total")};
  };
  std::vector<int64_t> before = counters();
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  EXPECT_TRUE(client.runCompile(compileRequest("ok", "fir")).ok);
  EXPECT_FALSE(client.runCompile(compileRequest("bad", "frobnicate")).ok);
  server.stop();

  std::vector<int64_t> after = counters();
  Server::Stats stats = server.stats();
  std::vector<int64_t> deltas;
  for (size_t i = 0; i < after.size(); ++i)
    deltas.push_back(after[i] - before[i]);
  EXPECT_EQ((std::vector<int64_t>{stats.connections, stats.admitted,
                                  stats.rejectedBusy, stats.rejectedShutdown,
                                  stats.completedOk, stats.completedError,
                                  stats.cancelled}),
            deltas);
  EXPECT_EQ(stats.connections, 1);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completedOk, 1);
  EXPECT_EQ(stats.completedError, 1);
}

/// Thread stacks mapped in this process: read-write mappings that start
/// right where a no-access guard mapping ends (/proc/self/maps). A thread's
/// stack stays mapped from its creation until it is joined, after which
/// glibc keeps a few for reuse, so this counts the readers that have
/// exited but were never joined; /proc/self/task no longer lists those.
int mappedStacks() {
  std::ifstream maps("/proc/self/maps");
  if (!maps)
    return -1;
  int count = 0;
  bool afterGuard = false;
  unsigned long long previousEnd = 0;
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long long start = 0, end = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%llx-%llx %4s", &start, &end, perms) != 3)
      continue;
    std::string_view mode(perms);
    count += afterGuard && start == previousEnd && mode == "rw-p";
    afterGuard = mode == "---p";
    previousEnd = end;
  }
  return count;
}

TEST(ServeServer, FinishedConnectionsAreJoinedAndDropped) {
  // Each connection gets a reader thread with its own stack. A daemon that
  // joined its readers only at shutdown kept one stack per connection it
  // had ever accepted: 64 more here. Each accept joins the readers whose
  // client has gone, so only readers that had not yet seen their client's
  // end at the last accepts, and the few stacks glibc caches, can remain.
  // On a loaded host the readers lag; more pings (at most 64) reap them.
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  int64_t pings = 0;
  auto pingOnce = [&] {
    Client client;
    ASSERT_TRUE(client.connect(socket));
    ASSERT_TRUE(client.ping());
    ++pings;
  };
  for (int i = 0; i < 8; ++i)
    pingOnce();
  int before = mappedStacks();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 64; ++i)
    pingOnce();
  constexpr int kSlack = 16;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int after = mappedStacks();
  while (after >= before + kSlack && pings < 72 + 64 &&
         std::chrono::steady_clock::now() < deadline) {
    pingOnce();
    after = mappedStacks();
  }
  server.stop();
  EXPECT_LT(after, before + kSlack)
      << "thread stacks went from " << before << " to " << after << " over "
      << pings - 8 << " closed connections";
  EXPECT_EQ(server.stats().connections, pings);
}

namespace {

/// Runs one compile request against a fake daemon that answers it with
/// `reply` (newline-framed lines) and closes.
Client::CompileOutcome compileAgainstFakeDaemon(const std::string &reply) {
  std::string socket = testSocketPath();
  int listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(listenFd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket.c_str());
  EXPECT_EQ(
      ::bind(listenFd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(listenFd, 1), 0);
  std::thread daemon([&] {
    int fd = ::accept(listenFd, nullptr, nullptr);
    char request[4096];
    if (fd >= 0 && ::read(fd, request, sizeof(request)) > 0)
      (void)!::write(fd, reply.data(), reply.size());
    if (fd >= 0)
      ::close(fd);
  });
  Client client;
  Client::CompileOutcome outcome;
  if (client.connect(socket))
    outcome = client.runCompile(compileRequest("r", "fir"));
  else
    outcome.error = "connect failed";
  daemon.join();
  ::close(listenFd);
  ::unlink(socket.c_str());
  return outcome;
}

std::string doneLine(const char *queueUs) {
  return strfmt(
      R"({"schema": "mha.serve.resp.v1", "id": "r", "event": "done", )"
      R"("status": "ok", "cached": false, "queue_us": %s, )"
      R"("compile_us": 10})"
      "\n",
      queueUs);
}

} // namespace

TEST(ServeClient, NonIntegralDoneFieldIsAMalformedReply) {
  // A fake daemon answers each request with one `done` line; only an
  // integral queue_us reads as a reply.
  for (const char *queueUs : {"25", "2.5", "1e300"}) {
    Client::CompileOutcome outcome =
        compileAgainstFakeDaemon(doneLine(queueUs));
    bool integral = std::string(queueUs) == "25";
    EXPECT_EQ(outcome.transportOk, integral) << queueUs;
    EXPECT_EQ(outcome.ok, integral) << queueUs;
    if (integral)
      EXPECT_EQ(outcome.queueUs, 25);
    else
      EXPECT_NE(outcome.error.find("malformed response line"),
                std::string::npos)
          << outcome.error;
  }
}

TEST(ServeClient, BrokenNestedReportIsAMalformedReply) {
  // The client reads reply lines shallowly, but the nested report is
  // still checked: a result line whose report does not parse is refused,
  // while a well-formed one is kept byte for byte.
  const std::string head =
      R"({"schema": "mha.serve.resp.v1", "id": "r", "event": "result", )"
      R"("ok": true, "kernel": "fir", "report": )";
  for (const char *report :
       {R"({"accepted": true, "loops": [{"ii": 1}]})",
        R"({"accepted": tru, "loops": [{"ii": 1}]})",
        R"({"accepted": true, "loops": [{"ii": 1},]})"}) {
    std::string result = head + report + "}";
    Client::CompileOutcome outcome =
        compileAgainstFakeDaemon(result + "\n" + doneLine("25"));
    bool wellFormed = json::validate(result);
    EXPECT_EQ(outcome.transportOk, wellFormed) << report;
    if (wellFormed) {
      EXPECT_EQ(outcome.resultLine, result);
    } else {
      EXPECT_EQ(outcome.error, "malformed response line: " + result);
    }
  }
}

TEST(ServeServer, MalformedLineGetsTypedParseError) {
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  ASSERT_TRUE(client.sendLine("this is not json"));
  std::string line;
  ASSERT_TRUE(client.readLine(line));
  EXPECT_NE(line.find(errc::ParseError), std::string::npos);
  ASSERT_TRUE(client.readLine(line));
  EXPECT_NE(line.find("\"done\""), std::string::npos);
  // The connection survives a bad line.
  EXPECT_TRUE(client.ping("still-alive"));
  server.stop();
}

TEST(ServeServer, EstimateRequestReturnsAnalyticalQoR) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  Request req = compileRequest("est", "fir", 2);
  req.estimate = true;
  Client::CompileOutcome outcome = client.runCompile(req);
  ASSERT_TRUE(outcome.transportOk) << outcome.error;
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_NE(outcome.resultLine.find("\"estimate\": true"),
            std::string::npos);
  EXPECT_GT(jsonInt(outcome.resultLine, "latency_cycles"), 0);
  server.stop();
}

TEST(ServeServer, ShutdownRequestDrainsAndStops) {
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  ASSERT_TRUE(client.ping());
  ASSERT_TRUE(client.shutdown());
  server.wait();
  EXPECT_FALSE(server.running());
  // Socket file is gone; new connections fail.
  Client late;
  EXPECT_FALSE(late.connect(socket));
}

TEST(ServeServer, RejectsCompileDuringShutdownTyped) {
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  server.requestStop(); // flag flips immediately; socket drains async
  Client::CompileOutcome outcome =
      client.runCompile(compileRequest("late", "fir"));
  if (outcome.transportOk) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, errc::ShuttingDown);
  } // else: the drain already closed the connection — also correct.
  server.wait();
}

TEST(ServeServer, HlsCppFlowReturnsEmittedSource) {
  flow::StageCache::global().clear();
  std::string socket = testSocketPath();
  Server server(testOptions(socket));
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(socket));
  Request req = compileRequest("cpp", "fir");
  req.flowKind = flow::FlowKind::HlsCpp;
  Client::CompileOutcome outcome = client.runCompile(req);
  ASSERT_TRUE(outcome.transportOk) << outcome.error;
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_NE(outcome.resultLine.find("\"hls_cpp\""), std::string::npos);
  EXPECT_NE(outcome.resultLine.find("\"flow\": \"hls-c++\""),
            std::string::npos);
  server.stop();
}
