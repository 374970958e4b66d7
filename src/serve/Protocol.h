// Protocol.h - the mha-serve wire protocol.
//
// Newline-delimited JSON over a Unix-domain stream socket. Every request
// is one JSON object per line (schema "mha.serve.req.v1"); every response
// line is one JSON object (schema "mha.serve.resp.v1") echoing the
// request's id, so a client can multiplex requests over one connection.
//
// Request shape:
//   {"schema":"mha.serve.req.v1","id":"r1","type":"compile",
//    "kernel":"gemm","flow":"adaptor","ii":1,"unroll":2,"partition":2,
//    "dataflow":false,"directives":true,"estimate":false}
//   {"schema":"mha.serve.req.v1","id":"r2","type":"compile",
//    "mlir":"module { ... }","top":"gemm"}
//   {"schema":"mha.serve.req.v1","id":"r1","type":"cancel"}   (id = target)
//   {"schema":"mha.serve.req.v1","id":"p","type":"ping"}
//   {"schema":"mha.serve.req.v1","id":"s","type":"shutdown"}
//
// Parsing is strict: unknown fields, wrong types, out-of-range knob
// values, a missing/foreign schema, kernel+mlir together (or neither) and
// oversized inline MLIR are all rejected with a typed error instead of
// being guessed at — a daemon fed by many clients must fail loudly.
//
// Response events for one compile request, in order:
//   accepted -> stage* -> result -> done          (success)
//   accepted -> stage* -> error  -> done          (failed/cancelled)
//   error -> done                                 (rejected at admission)
// `result` carries the QoR (and the full synthesis report; the emitted
// C++ for the hls-c++ flow) and is byte-deterministic — a warm cache hit
// replays the cold run's result line exactly. Timings (queue_us,
// compile_us) and the cache-hit flag ride on the terminal `done` event so
// they never perturb that equivalence. ping/cancel/shutdown requests are
// answered with single pong/cancel_ack/shutdown_ack events.
#pragma once

#include "flow/Flow.h"

#include <optional>
#include <string>
#include <vector>

namespace mha::serve {

inline constexpr const char *kRequestSchema = "mha.serve.req.v1";
inline constexpr const char *kResponseSchema = "mha.serve.resp.v1";

/// Hard cap on inline MLIR text (bytes). Larger payloads are rejected
/// with `bad_request` before any parsing work happens.
inline constexpr size_t kMaxInlineMlirBytes = 1u << 20;

/// Error codes carried by `error` events and `done.code`.
namespace errc {
inline constexpr const char *ParseError = "parse_error";
inline constexpr const char *BadRequest = "bad_request";
inline constexpr const char *UnknownKernel = "unknown_kernel";
inline constexpr const char *Busy = "busy";
inline constexpr const char *ShuttingDown = "shutting_down";
inline constexpr const char *FlowError = "flow_error";
inline constexpr const char *Cancelled = "cancelled";
/// Inline-MLIR compile with multiple functions and no 'top' field: the
/// daemon refuses to guess and lists the candidates instead.
inline constexpr const char *AmbiguousTop = "ambiguous_top";
} // namespace errc

enum class RequestType { Compile, Cancel, Ping, Shutdown };

struct Request {
  RequestType type = RequestType::Compile;
  std::string id;
  /// Named built-in kernel (empty when `mlir` carries inline text).
  std::string kernel;
  /// Inline MLIR module text (empty when `kernel` names a built-in).
  std::string mlir;
  /// Top function to synthesize from an inline MLIR module. Optional for
  /// single-function modules; required (else errc::AmbiguousTop) when the
  /// module defines several. Only valid together with `mlir`.
  std::string top;
  flow::FlowKind flowKind = flow::FlowKind::Adaptor;
  /// Design knobs for a named kernel. Inline modules carry their own hls.*
  /// attributes, so with `mlir` every knob must stay at its default (else
  /// errc::BadRequest naming the knob).
  flow::KernelConfig config;
  /// Analytical QoR estimation instead of synthesis (DSE probe path).
  bool estimate = false;
};

/// Outcome of parsing one request line. When !ok, `errorCode` is
/// errc::ParseError (malformed JSON) or errc::BadRequest (well-formed but
/// invalid), and `request.id` carries the request's id when one could be
/// recovered so the error response can still be correlated.
struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string errorCode;
  std::string errorMessage;
};

ParsedRequest parseRequest(const std::string &line);

/// Canonical request line for a compile request — what mha-client and the
/// load generator send, and the easiest way to build protocol tests.
std::string renderCompileRequest(const std::string &id, const Request &req);
std::string renderAdminRequest(const std::string &id, RequestType type);

// --- Response renderers (one JSON line each, no trailing newline; every
// line is json::validate-clean by construction and covered by tests). ---

std::string renderAccepted(const std::string &id, int64_t queueDepth);
std::string renderStage(const std::string &id, const char *stage);
/// The deterministic result event for a finished flow (see file comment).
std::string renderResult(const std::string &id, const Request &req,
                         const flow::FlowResult &result);
/// Estimate-only result event (analytical QoR, no synthesis report).
std::string renderEstimateResult(const std::string &id, const Request &req,
                                 int64_t latencyCycles, int64_t dsp,
                                 int64_t bram, int64_t lut, int64_t ff);
/// `withAvailableKernels` appends the "available_kernels" array — set for
/// errc::UnknownKernel so a misspelled name teaches the valid ones
/// structurally (not just on some tool's stderr).
std::string renderError(const std::string &id, const std::string &code,
                        const std::string &message,
                        bool withAvailableKernels = false);
/// Error event carrying an explicit "candidates" array — used by
/// errc::AmbiguousTop (the module's function names) and by a 'top' that
/// matches none of them, so a client can retry without guessing.
std::string renderErrorWithCandidates(const std::string &id,
                                      const std::string &code,
                                      const std::string &message,
                                      const std::vector<std::string> &candidates);
std::string renderDone(const std::string &id, bool ok,
                       const std::string &code, bool cached, int64_t queueUs,
                       int64_t compileUs);
std::string renderPong(const std::string &id);
std::string renderCancelAck(const std::string &id, bool found);
std::string renderShutdownAck(const std::string &id);

} // namespace mha::serve
