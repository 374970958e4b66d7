#include "serve/Protocol.h"

#include "flow/Kernels.h"
#include "support/Json.h"
#include "support/StringUtils.h"

namespace mha::serve {

namespace {

/// Extracts an integral knob in [min, max] from a JSON number. JSON has
/// only doubles; a fractional or out-of-range value is a client bug.
bool intField(const json::Value &value, const char *name, int64_t min,
              int64_t max, int64_t &out, std::string &error) {
  if (!value.isNumber()) {
    error = strfmt("field '%s' must be a number", name);
    return false;
  }
  std::optional<int64_t> n = value.asInt();
  if (!n || *n < min || *n > max) {
    error = strfmt("field '%s' out of range (expected integer in [%lld, "
                   "%lld])",
                   name, static_cast<long long>(min),
                   static_cast<long long>(max));
    return false;
  }
  out = *n;
  return true;
}

bool boolField(const json::Value &value, const char *name, bool &out,
               std::string &error) {
  if (!value.isBool()) {
    error = strfmt("field '%s' must be a boolean", name);
    return false;
  }
  out = value.asBool();
  return true;
}

bool stringField(const json::Value &value, const char *name, std::string &out,
                 std::string &error) {
  if (!value.isString()) {
    error = strfmt("field '%s' must be a string", name);
    return false;
  }
  out = value.asString();
  return true;
}

ParsedRequest fail(std::string code, std::string message, std::string id) {
  ParsedRequest pr;
  pr.ok = false;
  pr.errorCode = std::move(code);
  pr.errorMessage = std::move(message);
  pr.request.id = std::move(id);
  return pr;
}

/// Shared response-line prefix: schema, id, event.
std::string head(const std::string &id, const char *event) {
  return strfmt("{\"schema\": \"%s\", \"id\": \"%s\", \"event\": \"%s\"",
                kResponseSchema, json::escape(id).c_str(), event);
}

/// The design knob whose wire name is `key`, or null.
const flow::Knob *findKnob(const std::string &key) {
  for (const flow::Knob &knob : flow::kKnobs)
    if (key == knob.name)
      return &knob;
  return nullptr;
}

const char *flowWireName(flow::FlowKind kind) {
  // "hls-c++" is the human name; on the wire the flow field accepts both
  // spellings and we emit the canonical one.
  return flow::flowKindName(kind);
}

} // namespace

ParsedRequest parseRequest(const std::string &line) {
  std::string parseError;
  std::optional<json::Value> doc = json::parse(line, &parseError);
  if (!doc)
    return fail(errc::ParseError, "malformed JSON: " + parseError, "");
  if (!doc->isObject())
    return fail(errc::ParseError, "request must be a JSON object", "");

  // Recover the id first so even validation failures stay correlatable.
  std::string id;
  if (const json::Value *idValue = doc->get("id"); idValue &&
      idValue->isString())
    id = idValue->asString();

  std::string schema, typeName, flowName = "adaptor";
  Request req;
  req.id = id;
  bool sawSchema = false, sawId = false, sawType = false;
  bool sawKernel = false, sawMlir = false, sawTop = false;
  std::string error;
  for (const auto &[key, value] : doc->members()) {
    if (key == "schema") {
      sawSchema = true;
      if (!stringField(value, "schema", schema, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "id") {
      sawId = true;
      if (!stringField(value, "id", req.id, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "type") {
      sawType = true;
      if (!stringField(value, "type", typeName, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "kernel") {
      sawKernel = true;
      if (!stringField(value, "kernel", req.kernel, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "mlir") {
      sawMlir = true;
      if (!stringField(value, "mlir", req.mlir, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "top") {
      sawTop = true;
      if (!stringField(value, "top", req.top, error))
        return fail(errc::BadRequest, error, id);
    } else if (key == "flow") {
      if (!stringField(value, "flow", flowName, error))
        return fail(errc::BadRequest, error, id);
    } else if (const flow::Knob *knob = findKnob(key)) {
      bool ok = knob->isBool()
                    ? boolField(value, knob->name,
                                req.config.*knob->boolField, error)
                    : intField(value, knob->name, knob->min, knob->max,
                               req.config.*knob->intField, error);
      if (!ok)
        return fail(errc::BadRequest, error, id);
    } else if (key == "estimate") {
      if (!boolField(value, "estimate", req.estimate, error))
        return fail(errc::BadRequest, error, id);
    } else {
      return fail(errc::BadRequest, strfmt("unknown field '%s'", key.c_str()),
                  id);
    }
  }

  if (!sawSchema || schema != kRequestSchema)
    return fail(errc::BadRequest,
                strfmt("missing or unsupported schema (expected \"%s\")",
                       kRequestSchema),
                id);
  if (!sawId || req.id.empty() || req.id.size() > 128)
    return fail(errc::BadRequest,
                "field 'id' is required (non-empty string, at most 128 "
                "bytes)",
                id);
  if (!sawType)
    return fail(errc::BadRequest, "field 'type' is required", req.id);

  if (typeName == "compile")
    req.type = RequestType::Compile;
  else if (typeName == "cancel")
    req.type = RequestType::Cancel;
  else if (typeName == "ping")
    req.type = RequestType::Ping;
  else if (typeName == "shutdown")
    req.type = RequestType::Shutdown;
  else
    return fail(errc::BadRequest,
                strfmt("unknown type '%s' (expected compile|cancel|ping|"
                       "shutdown)",
                       typeName.c_str()),
                req.id);

  if (req.type != RequestType::Compile) {
    // Admin requests carry no compile payload.
    if (sawKernel || sawMlir || sawTop)
      return fail(errc::BadRequest,
                  strfmt("type '%s' takes no kernel/mlir payload",
                         typeName.c_str()),
                  req.id);
    return ParsedRequest{true, std::move(req), "", ""};
  }

  if (sawKernel == sawMlir)
    return fail(errc::BadRequest,
                "compile requests need exactly one of 'kernel' or 'mlir'",
                req.id);
  if (sawKernel && req.kernel.empty())
    return fail(errc::BadRequest, "field 'kernel' must be non-empty", req.id);
  if (sawMlir && req.mlir.empty())
    return fail(errc::BadRequest, "field 'mlir' must be non-empty", req.id);
  if (req.mlir.size() > kMaxInlineMlirBytes)
    return fail(errc::BadRequest,
                strfmt("inline MLIR too large (%zu bytes, limit %zu)",
                       req.mlir.size(), kMaxInlineMlirBytes),
                req.id);
  if (sawTop && req.top.empty())
    return fail(errc::BadRequest, "field 'top' must be non-empty", req.id);
  if (sawTop && !sawMlir)
    return fail(errc::BadRequest,
                "field 'top' applies only to inline-mlir compile requests "
                "(named kernels define their own top)",
                req.id);

  if (flowName == "adaptor")
    req.flowKind = flow::FlowKind::Adaptor;
  else if (flowName == "hls-cpp" || flowName == "hls-c++")
    req.flowKind = flow::FlowKind::HlsCpp;
  else
    return fail(errc::BadRequest,
                strfmt("unknown flow '%s' (expected adaptor|hls-cpp)",
                       flowName.c_str()),
                req.id);

  if (req.estimate && sawMlir)
    return fail(errc::BadRequest,
                "estimate requests need a named kernel (inline MLIR has no "
                "design space)",
                req.id);
  if (req.estimate && req.flowKind != flow::FlowKind::Adaptor)
    return fail(errc::BadRequest,
                "estimate requests use the adaptor flow", req.id);

  return ParsedRequest{true, std::move(req), "", ""};
}

std::string renderCompileRequest(const std::string &id, const Request &req) {
  std::string line =
      strfmt("{\"schema\": \"%s\", \"id\": \"%s\", \"type\": \"compile\"",
             kRequestSchema, json::escape(id).c_str());
  if (!req.mlir.empty()) {
    line += strfmt(", \"mlir\": \"%s\"", json::escape(req.mlir).c_str());
    if (!req.top.empty())
      line += strfmt(", \"top\": \"%s\"", json::escape(req.top).c_str());
  } else {
    line += strfmt(", \"kernel\": \"%s\"", json::escape(req.kernel).c_str());
  }
  line += strfmt(", \"flow\": \"%s\"", flowWireName(req.flowKind));
  for (const flow::Knob &knob : flow::kKnobs)
    line += strfmt(", \"%s\": %s", knob.name, knob.text(req.config).c_str());
  line += strfmt(", \"estimate\": %s}", req.estimate ? "true" : "false");
  return line;
}

std::string renderAdminRequest(const std::string &id, RequestType type) {
  const char *name = type == RequestType::Cancel     ? "cancel"
                     : type == RequestType::Ping     ? "ping"
                     : type == RequestType::Shutdown ? "shutdown"
                                                     : "compile";
  return strfmt("{\"schema\": \"%s\", \"id\": \"%s\", \"type\": \"%s\"}",
                kRequestSchema, json::escape(id).c_str(), name);
}

std::string renderAccepted(const std::string &id, int64_t queueDepth) {
  return head(id, "accepted") +
         strfmt(", \"queue_depth\": %lld}",
                static_cast<long long>(queueDepth));
}

std::string renderStage(const std::string &id, const char *stage) {
  return head(id, "stage") + strfmt(", \"stage\": \"%s\"}", stage);
}

std::string renderResult(const std::string &id, const Request &req,
                         const flow::FlowResult &result) {
  const vhls::FunctionReport *top = result.synth.top();
  std::string line = head(id, "result");
  line += strfmt(", \"ok\": true, \"kernel\": \"%s\", \"flow\": \"%s\"",
                 json::escape(result.kernelName).c_str(),
                 flowWireName(req.flowKind));
  line += strfmt(", \"latency_cycles\": %lld, \"dsp\": %lld, \"bram\": "
                 "%lld, \"lut\": %lld, \"ff\": %lld",
                 static_cast<long long>(top ? top->latencyCycles : 0),
                 static_cast<long long>(top ? top->resources.dsp : 0),
                 static_cast<long long>(top ? top->resources.bram : 0),
                 static_cast<long long>(top ? top->resources.lut : 0),
                 static_cast<long long>(top ? top->resources.ff : 0));
  // The synthesis report is itself a validated JSON document, but
  // pretty-printed — compact it so the event stays one NDJSON line.
  line += ", \"report\": " + json::compact(result.synth.json());
  if (!result.hlsCpp.empty())
    line += strfmt(", \"hls_cpp\": \"%s\"",
                   json::escape(result.hlsCpp).c_str());
  line += "}";
  return line;
}

std::string renderEstimateResult(const std::string &id, const Request &req,
                                 int64_t latencyCycles, int64_t dsp,
                                 int64_t bram, int64_t lut, int64_t ff) {
  std::string line = head(id, "result");
  line += strfmt(", \"ok\": true, \"estimate\": true, \"kernel\": \"%s\", "
                 "\"flow\": \"%s\"",
                 json::escape(req.kernel).c_str(), flowWireName(req.flowKind));
  line += strfmt(", \"latency_cycles\": %lld, \"dsp\": %lld, \"bram\": "
                 "%lld, \"lut\": %lld, \"ff\": %lld}",
                 static_cast<long long>(latencyCycles),
                 static_cast<long long>(dsp), static_cast<long long>(bram),
                 static_cast<long long>(lut), static_cast<long long>(ff));
  return line;
}

std::string renderError(const std::string &id, const std::string &code,
                        const std::string &message,
                        bool withAvailableKernels) {
  std::string line = head(id, "error");
  line += strfmt(", \"code\": \"%s\", \"message\": \"%s\"",
                 json::escape(code).c_str(), json::escape(message).c_str());
  if (withAvailableKernels) {
    line += ", \"available_kernels\": [";
    bool first = true;
    for (const flow::KernelSpec &spec : flow::allKernels()) {
      line += strfmt("%s\"%s\"", first ? "" : ", ",
                     json::escape(spec.name).c_str());
      first = false;
    }
    line += "]";
  }
  line += "}";
  return line;
}

std::string renderErrorWithCandidates(
    const std::string &id, const std::string &code,
    const std::string &message,
    const std::vector<std::string> &candidates) {
  std::string line = head(id, "error");
  line += strfmt(", \"code\": \"%s\", \"message\": \"%s\"",
                 json::escape(code).c_str(), json::escape(message).c_str());
  line += ", \"candidates\": [";
  for (size_t i = 0; i < candidates.size(); ++i)
    line += strfmt("%s\"%s\"", i ? ", " : "",
                   json::escape(candidates[i]).c_str());
  line += "]}";
  return line;
}

std::string renderDone(const std::string &id, bool ok,
                       const std::string &code, bool cached, int64_t queueUs,
                       int64_t compileUs) {
  std::string line = head(id, "done");
  line += strfmt(", \"status\": \"%s\"", ok ? "ok" : "error");
  if (!code.empty())
    line += strfmt(", \"code\": \"%s\"", json::escape(code).c_str());
  line += strfmt(", \"cached\": %s, \"queue_us\": %lld, \"compile_us\": "
                 "%lld}",
                 cached ? "true" : "false",
                 static_cast<long long>(queueUs),
                 static_cast<long long>(compileUs));
  return line;
}

std::string renderPong(const std::string &id) { return head(id, "pong") + "}"; }

std::string renderCancelAck(const std::string &id, bool found) {
  return head(id, "cancel_ack") +
         strfmt(", \"found\": %s}", found ? "true" : "false");
}

std::string renderShutdownAck(const std::string &id) {
  return head(id, "shutdown_ack") + "}";
}

} // namespace mha::serve
