#include "serve/Session.h"

#include "dse/Evaluator.h"
#include "flow/Flow.h"
#include "flow/Kernels.h"
#include "mir/MContext.h"
#include "mir/Parser.h"
#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <optional>

namespace mha::serve {

namespace {

/// First line of a (possibly multi-line) diagnostic dump — enough for a
/// one-line error event; the full text stays on the daemon's stderr/log.
std::string firstLine(const std::string &text) {
  size_t eol = text.find('\n');
  std::string line = eol == std::string::npos ? text : text.substr(0, eol);
  return line.empty() ? "flow failed" : line;
}

flow::FlowOptions makeFlowOptions(const Request &req,
                                  const SessionOptions &options,
                                  const std::atomic<bool> *cancelFlag,
                                  const Emit &emit) {
  flow::FlowOptions fo;
  fo.useStageCache = options.useStageCache;
  fo.passJobs = options.passJobs;
  fo.cancelFlag = cancelFlag;
  fo.onStage = [&req, &emit](const char *stage) {
    emit(renderStage(req.id, stage));
  };
  return fo;
}

SessionOutcome finishFlow(const Request &req, const flow::FlowResult &result,
                          const Emit &emit) {
  SessionOutcome outcome;
  outcome.cached = result.synthFromCache;
  if (result.ok) {
    outcome.ok = true;
    emit(renderResult(req.id, req, result));
    return outcome;
  }
  outcome.code = result.cancelled ? errc::Cancelled : errc::FlowError;
  emit(renderError(req.id, outcome.code, firstLine(result.diagnostics)));
  return outcome;
}

SessionOutcome runEstimate(const Request &req, const flow::KernelSpec &spec,
                           const SessionOptions &options,
                           const std::atomic<bool> *cancelFlag,
                           const Emit &emit) {
  // The estimator's probe runs are real flows — they stream stage events
  // and share the StageCache like any other compile.
  dse::EvaluatorOptions eo;
  eo.numThreads = 1;
  eo.flow = makeFlowOptions(req, options, cancelFlag, emit);
  dse::Evaluator evaluator(spec, eo);
  dse::QoR qor = evaluator.estimate(req.config);
  SessionOutcome outcome;
  if (!qor.ok) {
    bool cancelled =
        cancelFlag && cancelFlag->load(std::memory_order_relaxed);
    outcome.code = cancelled ? errc::Cancelled : errc::FlowError;
    emit(renderError(req.id, outcome.code,
                     qor.error.empty() ? "estimation failed"
                                       : firstLine(qor.error)));
    return outcome;
  }
  outcome.ok = true;
  emit(renderEstimateResult(req.id, req, qor.latencyCycles, qor.dsp,
                            qor.bram, qor.lut, qor.ff));
  return outcome;
}

/// The first design knob of `config` that differs from its default, as
/// "<wire name> = <value>" (nullopt: all defaults).
std::optional<std::string> nonDefaultKnob(const flow::KernelConfig &config) {
  const flow::KernelConfig defaults;
  if (config.pipelineII != defaults.pipelineII)
    return strfmt("ii = %lld", static_cast<long long>(config.pipelineII));
  if (config.unrollFactor != defaults.unrollFactor)
    return strfmt("unroll = %lld",
                  static_cast<long long>(config.unrollFactor));
  if (config.partitionFactor != defaults.partitionFactor)
    return strfmt("partition = %lld",
                  static_cast<long long>(config.partitionFactor));
  if (config.dataflow != defaults.dataflow)
    return std::string("dataflow = true");
  if (config.applyDirectives != defaults.applyDirectives)
    return std::string("directives = false");
  return std::nullopt;
}

} // namespace

std::string inlineKernelName(const std::string &mlirText) {
  // FNV-1a 64-bit over the raw module text.
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : mlirText) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return strfmt("inline-%016llx", static_cast<unsigned long long>(hash));
}

SessionOutcome runSession(const Request &req, const SessionOptions &options,
                          const std::atomic<bool> *cancelFlag,
                          const Emit &emit) {
  if (req.mlir.empty()) {
    const flow::KernelSpec *spec = flow::findKernel(req.kernel);
    if (!spec) {
      SessionOutcome outcome;
      outcome.code = errc::UnknownKernel;
      emit(renderError(req.id, outcome.code,
                       strfmt("unknown kernel '%s'", req.kernel.c_str()),
                       /*withAvailableKernels=*/true));
      return outcome;
    }
    if (req.estimate)
      return runEstimate(req, *spec, options, cancelFlag, emit);
    flow::FlowOptions fo = makeFlowOptions(req, options, cancelFlag, emit);
    flow::FlowResult result =
        req.flowKind == flow::FlowKind::Adaptor
            ? flow::runAdaptorFlow(*spec, req.config, fo)
            : flow::runHlsCppFlow(*spec, req.config, fo);
    return finishFlow(req, result, emit);
  }

  // Inline MLIR carries its directives as hls.* attributes in the module
  // text, so the request's design knobs cannot apply. Reject a knob set
  // away from its default instead of ignoring it; the check is on value,
  // not presence, because clients always write every knob.
  if (std::optional<std::string> knob = nonDefaultKnob(req.config)) {
    SessionOutcome outcome;
    outcome.code = errc::BadRequest;
    emit(renderError(
        req.id, outcome.code,
        strfmt("knob '%s' does not apply to inline MLIR: inline modules "
               "carry their own hls.* directive attributes; leave the "
               "knob at its default and set the attribute in the module",
               knob->c_str())));
    return outcome;
  }

  // Inline MLIR: validate it up front in a session-private context so a
  // bad module is a clean bad_request, then wrap the text in a synthetic
  // spec whose builder re-parses it into whichever MContext the flow
  // provides (the text is already known-good, so that parse cannot fail).
  {
    mir::MContext probeCtx;
    DiagnosticEngine probeDiags;
    std::optional<mir::OwnedModule> probe =
        mir::parseModule(req.mlir, probeCtx, probeDiags);
    if (!probe) {
      SessionOutcome outcome;
      outcome.code = errc::BadRequest;
      emit(renderError(req.id, outcome.code,
                       "inline MLIR parse failed: " +
                           firstLine(probeDiags.str())));
      return outcome;
    }
    std::vector<mir::FuncOp> funcs = probe->get().funcs();
    if (funcs.empty()) {
      SessionOutcome outcome;
      outcome.code = errc::BadRequest;
      emit(renderError(req.id, outcome.code,
                       "inline MLIR module has no functions"));
      return outcome;
    }

    // Resolve the top function. A single-function module needs no 'top';
    // anything else must name one — the daemon never guesses, because
    // funcs.front() depends on definition order the client may not
    // control (generated modules, concatenated files).
    std::vector<std::string> candidates;
    candidates.reserve(funcs.size());
    for (mir::FuncOp &fn : funcs)
      candidates.push_back(fn.name());
    std::string top;
    if (!req.top.empty()) {
      for (const std::string &name : candidates)
        if (name == req.top)
          top = name;
      if (top.empty()) {
        SessionOutcome outcome;
        outcome.code = errc::BadRequest;
        emit(renderErrorWithCandidates(
            req.id, outcome.code,
            strfmt("top function '%s' not found in inline MLIR module",
                   req.top.c_str()),
            candidates));
        return outcome;
      }
    } else if (funcs.size() > 1) {
      SessionOutcome outcome;
      outcome.code = errc::AmbiguousTop;
      std::string names;
      for (size_t i = 0; i < candidates.size(); ++i)
        names += (i ? ", " : "") + candidates[i];
      emit(renderErrorWithCandidates(
          req.id, outcome.code,
          strfmt("inline MLIR module defines %zu functions (%s); set "
                 "'top' to pick one",
                 candidates.size(), names.c_str()),
          candidates));
      return outcome;
    } else {
      top = candidates.front();
    }

    flow::KernelSpec spec;
    spec.name = inlineKernelName(req.mlir);
    spec.description = "inline MLIR request";
    std::string mlirText = req.mlir;
    spec.build = [mlirText](mir::MContext &ctx,
                            const flow::KernelConfig &) {
      DiagnosticEngine diags;
      std::optional<mir::OwnedModule> module =
          mir::parseModule(mlirText, ctx, diags);
      return std::move(*module);
    };

    flow::FlowOptions fo = makeFlowOptions(req, options, cancelFlag, emit);
    // spec.name is a hash, not a function name; synthesize the resolved
    // top (the StageCache synth key includes it, so per-top results of
    // the same module never collide).
    fo.synthesis.topFunction = top;
    flow::FlowResult result =
        req.flowKind == flow::FlowKind::Adaptor
            ? flow::runAdaptorFlow(spec, req.config, fo)
            : flow::runHlsCppFlow(spec, req.config, fo);
    return finishFlow(req, result, emit);
  }
}

} // namespace mha::serve
