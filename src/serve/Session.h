// Session.h - one admitted compile request, start to finish.
//
// A Session owns everything request-scoped: it resolves the kernel (named
// built-in, or a synthetic spec wrapping inline MLIR text), builds its own
// flow contexts (each flow call constructs a private MContext/LContext, so
// two sessions compiling identically-named kernels never share mutable
// state), streams per-stage progress through the Emit callback and renders
// the final `result`/`error` event itself. The surrounding Server emits
// the `accepted` and terminal `done` events — admission and queue timing
// are its business, not the session's.
//
// Cancellation is cooperative: the server-owned flag is forwarded into
// FlowOptions::cancelFlag and checked at every stage boundary.
#pragma once

#include "serve/Protocol.h"

#include <atomic>
#include <functional>
#include <string>

namespace mha::serve {

/// Delivers one response line (no trailing newline) to the client. Called
/// from the session's worker thread; the server's per-connection writer
/// lock makes concurrent emits safe.
using Emit = std::function<void(const std::string &line)>;

struct SessionOptions {
  /// Consult/populate the process-global StageCache (the daemon's
  /// whole-pipeline result cache).
  bool useStageCache = true;
};

/// What the server needs for the terminal `done` event and its metrics.
struct SessionOutcome {
  bool ok = false;
  /// errc::* code when !ok (empty on success).
  std::string code;
  /// Final synthesis stage came from the StageCache (warm hit).
  bool cached = false;
};

/// Runs one validated compile request to completion on the calling
/// thread. Emits stage events as the flow advances and exactly one
/// `result` or `error` event before returning.
SessionOutcome runSession(const Request &req, const SessionOptions &options,
                          const std::atomic<bool> *cancelFlag,
                          const Emit &emit);

/// Content-addressed name for an inline-MLIR request's synthetic kernel
/// spec: "inline-<16 hex digits>". The StageCache's mlir-stage key hashes
/// the spec *name* as a stand-in for the builder, so inline specs must
/// derive their name from the module text — two different inline modules
/// then never collide, and resubmitting the same text is a warm hit.
std::string inlineKernelName(const std::string &mlirText);

} // namespace mha::serve
