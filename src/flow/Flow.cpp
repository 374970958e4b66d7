#include "flow/Flow.h"

#include "flow/StageCache.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "interp/Interp.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lowering/Lowering.h"
#include "mir/Parser.h"
#include "mir/Pass.h"
#include "mir/Printer.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <any>
#include <cmath>
#include <optional>

namespace mha::flow {

/// Everything one flow run threads through its stage table. Declared in
/// the flow namespace (not an anonymous one): FlowResult names it a friend
/// so the stage rows can install and defer the result's module.
struct FlowState {
  FlowState(const FlowOptions &options, FlowResult &result,
            DiagnosticEngine &diags)
      : options(options), result(result), diags(diags) {}

  const FlowOptions &options;
  FlowResult &result;
  DiagnosticEngine &diags;
  const char *stage = ""; // the running row, for sub-stage spans
  std::string top;        // the synthesis top (and the inliner's keeper)
  // Kernel entries. `mirText` is printed only with the cache on; after a
  // stage-1 hit `mir` stays empty unless a bridge miss reparses it.
  const KernelSpec *spec = nullptr;
  KernelConfig config;
  mir::MContext mctx;
  std::optional<mir::OwnedModule> mir;
  std::string mirText;
  const std::string *lirInput = nullptr; // the direct-LIR entry's input
  lir::Module *borrowed = nullptr; // synthesizeModule's caller-owned input

  // The result's IR, private to the flow driver (like `result`, these
  // reach through a const FlowState).
  std::unique_ptr<lir::Module> &module() const { return result.module_; }
  std::unique_ptr<lir::LContext> &context() const { return result.ctx_; }
  /// The printed bridge output (cache on); addresses synth.
  std::string &lirText() const { return result.lirText_; }
};

namespace {

// --- Stage keys ---------------------------------------------------------
//
// Option structs are hashed field by field (no reflection); when an
// option that changes a stage's output gains a field, add it to the
// matching key or the cache will serve stale entries for runs that
// differ only in the new field.

/// The adaptor passes need to know the synthesis top (the inliner must
/// not erase it even when every call site is gone).
adaptor::AdaptorOptions adaptorOptions(const FlowState &s) {
  adaptor::AdaptorOptions ao = s.options.adaptor;
  if (ao.topFunction.empty())
    ao.topFunction = s.top;
  return ao;
}

vhls::SynthesisOptions synthOptions(const FlowState &s) {
  vhls::SynthesisOptions so = s.options.synthesis;
  so.topFunction = s.top;
  return so;
}

void hashAdaptorOptions(HashBuilder &hb, const adaptor::AdaptorOptions &ao) {
  hb.boolean(ao.runCallLegalization)
      .i64(ao.inlineBudget)
      .i64(ao.recursionDepth)
      .str(ao.topFunction)
      .boolean(ao.runDescriptorElimination)
      .boolean(ao.runIntrinsicLegalize)
      .boolean(ao.runGepCanonicalize)
      .boolean(ao.runPointerTypeRecovery)
      .boolean(ao.runMetadataConvert)
      .boolean(ao.runAttributeScrub)
      .boolean(ao.verifyCompat)
      .boolean(ao.runCleanups)
      .boolean(false); // retired pass-fusion flag: keeps stage keys stable
}

/// Kernel identity + directives + MLIR-level options. The kernel name
/// stands in for the builder function: the registry is static.
uint64_t mlirKey(const FlowState &s) {
  HashBuilder hb;
  hb.str("mlir").str(s.spec->name);
  hb.i64(s.config.pipelineII)
      .i64(s.config.unrollFactor)
      .i64(s.config.partitionFactor)
      .boolean(s.config.dataflow)
      .boolean(s.config.applyDirectives);
  hb.boolean(s.options.runMlirOpts).boolean(s.options.unrollAtMlirLevel);
  return hb.get();
}

/// The mir text plus everything that shapes lowering and the adaptor
/// pipeline, with the *effective* adaptor options.
uint64_t adaptorBridgeKey(const FlowState &s) {
  HashBuilder hb;
  hb.str("bridge-adaptor").str(s.mirText);
  const lowering::LoweringOptions &lo = s.options.lowering;
  hb.boolean(lo.useOpaquePointers)
      .boolean(lo.fuseMulAdd)
      .boolean(lo.useMemcpyIntrinsic)
      .boolean(lo.emitModernAttributes);
  hashAdaptorOptions(hb, adaptorOptions(s));
  return hb.get();
}

uint64_t lirBridgeKey(const FlowState &s) {
  HashBuilder hb;
  hb.str("bridge-lir").str(*s.lirInput);
  hashAdaptorOptions(hb, adaptorOptions(s));
  return hb.get();
}

/// Emission and the HLS frontend take no options.
uint64_t hlsCppBridgeKey(const FlowState &s) {
  return HashBuilder().str("bridge-hlscpp").str(s.mirText).get();
}

uint64_t synthKey(const FlowState &s) {
  vhls::SynthesisOptions options = synthOptions(s);
  HashBuilder hb;
  hb.str("synth").str(s.lirText());
  const vhls::TargetSpec &t = options.target;
  hb.f64Bits(t.clockPeriodNs).i64(t.memPortsPerBank);
  for (const auto &[fuClass, limit] : t.fuLimits)
    hb.str(fuClass).i64(limit);
  hb.i64(t.deviceDsp)
      .i64(t.deviceBram)
      .i64(t.deviceLut)
      .i64(t.deviceFf)
      .i64(t.lutPerState)
      .i64(t.ffPerState);
  hb.str(options.topFunction)
      .boolean(options.applyUnrollDirectives)
      .boolean(options.strictAcceptance);
  return hb.get();
}

// --- Stage work ---------------------------------------------------------

/// Runs one sub-stage of the current row under its own telemetry span and
/// records it as a StageSpan of that row.
template <typename Fn> bool substage(FlowState &s, const char *name, Fn &&fn) {
  telemetry::Span span(name, "flow-substage");
  bool ok = fn();
  s.result.spans.push_back({s.stage, name, span.finish()});
  return ok;
}

/// Installs the module `build` creates in a fresh LContext. Any previous
/// module dies first: it must not outlive the context it was built in
/// (its destructor walks context-owned constants).
template <typename Build> bool replaceModule(FlowState &s, Build &&build) {
  s.module().reset();
  s.context() = std::make_unique<lir::LContext>();
  s.module() = build(*s.context());
  return s.module() != nullptr;
}

/// Stage 1, the MLIR preparation both flows share (so Table 4's mlirOptMs
/// windows compare like with like).
bool runMlir(FlowState &s) {
  mir::OwnedModule module = s.spec->build(s.mctx, s.config);
  if (!mir::verifyModule(module.get(), s.diags))
    return false;
  mir::MPassManager pm;
  if (s.options.runMlirOpts)
    pm.add(mir::createCanonicalizePass());
  if (s.options.unrollAtMlirLevel) {
    // Cross-layer: consume hls.unroll here instead of in the backend.
    module.get().op->walk([&](mir::Operation *op) {
      if (!op->is(mir::ops::AffineFor))
        return;
      if (const auto *factor =
              dyn_cast<mir::IntegerAttr>(op->attr(mir::hlsattr::Unroll))) {
        op->setAttr("mha.unroll_now", factor);
        op->removeAttr(mir::hlsattr::Unroll);
      }
    });
    pm.add(mir::createAffineUnrollPass());
    if (s.options.runMlirOpts)
      pm.add(mir::createCanonicalizePass());
  }
  if (!pm.run(module.get(), s.diags))
    return false;
  s.mir = std::move(module);
  return true;
}

/// A bridge miss after a stage-1 hit reparses the cached mir text.
bool ensureMir(FlowState &s) {
  return s.mir || substage(s, "parse-cached-mlir", [&] {
           s.mir = mir::parseModule(s.mirText, s.mctx, s.diags);
           return s.mir.has_value();
         });
}

bool runAdaptorPipeline(FlowState &s) {
  return substage(s, "adaptor-pipeline", [&] {
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::buildAdaptorPipeline(pm, adaptorOptions(s));
    bool ok = pm.run(*s.module(), s.diags);
    s.result.adaptorStats = pm.totalStats();
    return ok;
  });
}

/// The paper's leg. The structured->scf conversion is flow-specific work
/// (the C++ emitter consumes structured IR), so it is charged to bridgeMs.
bool runAdaptorBridge(FlowState &s) {
  return ensureMir(s) &&
         substage(s, "affine-to-scf",
                  [&] {
                    mir::MPassManager convert;
                    convert.add(mir::createAffineToScfPass());
                    convert.add(mir::createCanonicalizePass());
                    return convert.run(s.mir->get(), s.diags);
                  }) &&
         substage(s, "lower-to-lir",
                  [&] {
                    return replaceModule(s, [&](lir::LContext &ctx) {
                      return lowering::lowerToLIR(s.mir->get(), ctx,
                                                  s.options.lowering, s.diags);
                    });
                  }) &&
         runAdaptorPipeline(s);
}

/// The baseline's leg: emit C++, re-parse it with the HLS frontend.
bool runHlsCppBridge(FlowState &s) {
  return ensureMir(s) &&
         substage(s, "emit-hls-cpp",
                  [&] {
                    s.result.hlsCpp = hlscpp::emitHlsCpp(s.mir->get(), s.diags);
                    return !s.result.hlsCpp.empty();
                  }) &&
         substage(s, "hls-frontend", [&] {
           return replaceModule(s, [&](lir::LContext &ctx) {
             return hlscpp::parseHlsCpp(s.result.hlsCpp, ctx, s.diags);
           });
         });
}

/// The direct-LIR leg parses its input and resolves the synthesis top
/// before anything is hashed: the top feeds the inliner's
/// preserved-function option, so it is part of the bridge key.
bool prepareLirBridge(FlowState &s) {
  if (!substage(s, "parse-lir", [&] {
        return replaceModule(s, [&](lir::LContext &ctx) {
          return lir::parseModule(*s.lirInput, ctx, s.diags);
        });
      }))
    return false;
  if (s.top.empty()) {
    std::vector<lir::Function *> defs;
    for (lir::Function *fn : s.module()->functions())
      if (!fn->isDeclaration())
        defs.push_back(fn);
    if (defs.size() != 1) {
      s.diags.error(strfmt("lir module defines %zu functions; a top "
                           "function must be named",
                           defs.size()));
      return false;
    }
    s.top = defs.front()->name();
  } else if (!s.module()->getFunction(s.top)) {
    s.diags.error(strfmt("top function '%s' not found in lir module",
                         s.top.c_str()));
    return false;
  }
  s.result.kernelName = s.top;
  return true;
}

// --- Cached values ------------------------------------------------------
//
// Each value is charged at its structural size: strings at their length,
// structures via sizeof plus owned string/vector payloads. Approximate
// (malloc slack and node overhead are not counted) but consistent.

struct Saved {
  std::any value;
  int64_t bytes;
};

/// Bridge output: the HLS-ready lir text plus the leg's side outputs.
struct BridgeOutput {
  std::string lirText;
  std::string hlsCpp;
  lir::PassStats adaptorStats;
};

Saved saveBridge(FlowState &s) {
  s.lirText() = lir::printModule(*s.module());
  BridgeOutput out{s.lirText(), s.result.hlsCpp, s.result.adaptorStats};
  int64_t n = static_cast<int64_t>(sizeof(out) + out.lirText.size() +
                                   out.hlsCpp.size());
  for (const auto &[name, value] : out.adaptorStats)
    n += static_cast<int64_t>(name.size() + sizeof(value));
  return {std::move(out), n};
}

/// A bridge hit restores typed values and does no IR work: the result
/// keeps the cached lir text, which the synth row parses only on a miss
/// and FlowResult::module() otherwise on first use. A module already in
/// the result (the direct-LIR entry's pre-adaptor input) is dropped so it
/// never passes as the flow's output.
bool restoreBridge(FlowState &s, std::any &value) {
  auto out = std::any_cast<BridgeOutput>(std::move(value));
  s.module().reset();
  s.context().reset();
  s.lirText() = std::move(out.lirText);
  s.result.hlsCpp = std::move(out.hlsCpp);
  s.result.adaptorStats = std::move(out.adaptorStats);
  return true;
}

/// The synth row's input. After a bridge hit a synth miss is the cached
/// text's first consumer, so the one parse of a cache hit happens here.
lir::Module *synthInput(FlowState &s) {
  if (s.borrowed)
    return s.borrowed;
  if (s.module())
    return s.module().get();
  lir::Module *module = nullptr;
  substage(s, "bridge-cache-restore", [&] {
    std::string error;
    module = s.result.module(&error);
    if (!module)
      s.diags.error(error);
    return module != nullptr;
  });
  return module;
}

Saved saveSynth(FlowState &s) {
  const vhls::SynthesisReport &report = s.result.synth;
  int64_t n = static_cast<int64_t>(sizeof(report) + report.topName.size());
  for (const auto &[name, value] : report.compat.violations)
    n += static_cast<int64_t>(name.size() + sizeof(value));
  for (const vhls::FunctionReport &fn : report.functions) {
    n += static_cast<int64_t>(sizeof(fn) + fn.name.size());
    for (const vhls::LoopReport &loop : fn.loops)
      n += static_cast<int64_t>(sizeof(loop) + loop.name.size() +
                                loop.note.size());
    for (const vhls::ArrayReport &array : fn.arrays)
      n += static_cast<int64_t>(sizeof(array) + array.name.size() +
                                array.partition.size());
  }
  return {report, n};
}

// --- The stage table and its driver -------------------------------------

/// One row of the stage table: only the row's own work. The driver owns
/// everything rows share — gating, spans, timing, caching, diagnostics.
struct StageRow {
  const char *name;             // "mlirOpt" | "bridge" | "synth"
  double StageTimings::*window; // the timing window the row fills
  const char *windowSpan;       // a StageSpan covering the window, if any
  StageCache::Stage cacheStage;
  bool (*prepare)(FlowState &); // optional work the key depends on
  uint64_t (*key)(const FlowState &);
  bool (*run)(FlowState &); // false: the stage failed
  Saved (*save)(FlowState &);
  bool (*restore)(FlowState &, std::any &);
};

const StageRow kMlirRow = {
    "mlirOpt", &StageTimings::mlirOptMs, "prepare-mlir",
    StageCache::Stage::Mlir, nullptr, mlirKey, runMlir,
    [](FlowState &s) -> Saved {
      s.mirText = mir::printModule(s.mir->get());
      return {s.mirText, static_cast<int64_t>(s.mirText.size())};
    },
    [](FlowState &s, std::any &value) {
      s.mirText = std::any_cast<std::string>(std::move(value));
      return true;
    }};
const StageRow kAdaptorBridgeRow = {
    "bridge", &StageTimings::bridgeMs, nullptr, StageCache::Stage::Bridge,
    nullptr, adaptorBridgeKey, runAdaptorBridge, saveBridge, restoreBridge};
const StageRow kHlsCppBridgeRow = {
    "bridge", &StageTimings::bridgeMs, nullptr, StageCache::Stage::Bridge,
    nullptr, hlsCppBridgeKey, runHlsCppBridge, saveBridge, restoreBridge};
const StageRow kLirBridgeRow = {
    "bridge", &StageTimings::bridgeMs, nullptr, StageCache::Stage::Bridge,
    prepareLirBridge, lirBridgeKey, runAdaptorPipeline, saveBridge,
    restoreBridge};
// After a bridge hit, a synth hit leaves the module as cached text that
// FlowResult::module() parses in its bridge state (backend unrolling
// mutates in place but preserves semantics, so co-simulation holds).
const StageRow kSynthRow = {
    "synth", &StageTimings::synthMs, "vhls", StageCache::Stage::Synth,
    nullptr, synthKey,
    [](FlowState &s) {
      lir::Module *module = synthInput(s);
      if (!module)
        return false;
      s.result.synth = vhls::synthesize(*module, synthOptions(s), s.diags);
      return s.result.synth.accepted;
    },
    saveSynth,
    [](FlowState &s, std::any &value) {
      s.result.synth = std::any_cast<vhls::SynthesisReport>(std::move(value));
      return true;
    }};

/// One row through the cache: key, lookup and restore on a hit; run, then
/// save and store on a successful miss (synth succeeds only when
/// accepted). With the cache off a row only runs: no key, no printed IR.
bool runStage(const StageRow &row, FlowState &s, bool &hit) {
  if (row.prepare && !row.prepare(s))
    return false;
  if (!s.options.useStageCache)
    return row.run(s);
  static metrics::Histogram &keyUs = metrics::Registry::global().histogram(
      "mha_stage_cache_key_us", "stage-cache key computation time");
  telemetry::Span keySpan("stage-key", "stage-cache");
  uint64_t key = row.key(s);
  keyUs.recordMs(keySpan.finish());
  StageCache &cache = StageCache::global();
  std::any cached;
  if (cache.lookup(row.cacheStage, key, cached)) {
    hit = true;
    return row.restore(s, cached);
  }
  if (!row.run(s))
    return false;
  Saved saved = row.save(s);
  cache.store(row.cacheStage, key, std::move(saved.value), saved.bytes);
  return true;
}

/// The one flow driver. Before each row it polls the cancellation flag
/// and notifies the progress observer; it times each row's window under
/// a flow-stage span; its single epilogue closes the total window and
/// renders the diagnostics on every exit.
void runStages(FlowState &s, std::initializer_list<const StageRow *> rows,
               std::string spanName, telemetry::SpanArgs spanArgs = {}) {
  telemetry::Span total(std::move(spanName), "flow", std::move(spanArgs));
  FlowResult &result = s.result;
  bool ok = true;
  for (const StageRow *row : rows) {
    if (s.options.cancelFlag &&
        s.options.cancelFlag->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      result.diagnostics = strfmt("flow cancelled before %s stage", row->name);
      break;
    }
    if (s.options.onStage)
      s.options.onStage(row->name);
    s.stage = row->name;
    telemetry::Span window(row->name, "flow-stage");
    bool hit = false;
    ok = runStage(*row, s, hit);
    double ms = window.finish();
    result.timings.*row->window = ms;
    if (row->windowSpan)
      result.spans.push_back({row->name, row->windowSpan, ms});
    if (row->cacheStage == StageCache::Stage::Synth)
      result.synthFromCache = hit;
    if (!ok)
      break;
  }
  result.timings.totalMs = total.finish();
  if (s.module()) // the text addressed synth; a built module supersedes it
    std::string().swap(s.lirText());
  if (!result.cancelled)
    result.diagnostics = s.diags.str();
  result.ok = ok && !result.cancelled;
}

/// The kernel entries differ only in their bridge row.
FlowResult runKernelFlow(FlowKind kind, const StageRow &bridge,
                         const KernelSpec &spec, const KernelConfig &config,
                         const FlowOptions &options) {
  FlowResult result;
  result.kind = kind;
  result.kernelName = spec.name;
  DiagnosticEngine diags;
  FlowState s(options, result, diags);
  s.spec = &spec;
  s.config = config;
  s.top = options.synthesis.topFunction.empty()
              ? spec.name
              : options.synthesis.topFunction;
  runStages(s, {&kMlirRow, &bridge, &kSynthRow},
            strfmt("flow:%s:%s", flowKindName(kind), spec.name.c_str()),
            {{"kernel", spec.name}, {"flow", flowKindName(kind)}});
  return result;
}

} // namespace

const char *flowKindName(FlowKind kind) {
  return kind == FlowKind::Adaptor ? "adaptor" : "hls-c++";
}

FlowResult runAdaptorFlow(const KernelSpec &spec, const KernelConfig &config,
                          const FlowOptions &options) {
  return runKernelFlow(FlowKind::Adaptor, kAdaptorBridgeRow, spec, config,
                       options);
}

FlowResult runHlsCppFlow(const KernelSpec &spec, const KernelConfig &config,
                         const FlowOptions &options) {
  return runKernelFlow(FlowKind::HlsCpp, kHlsCppBridgeRow, spec, config,
                       options);
}

FlowResult runLirAdaptorFlow(const std::string &lirText,
                             const std::string &topFunction,
                             const FlowOptions &options) {
  FlowResult result;
  result.kind = FlowKind::Adaptor;
  result.kernelName = topFunction;
  DiagnosticEngine diags;
  FlowState s(options, result, diags);
  s.lirInput = &lirText;
  s.top = topFunction;
  runStages(s, {&kLirBridgeRow, &kSynthRow}, "flow:adaptor:lir-input");
  return result;
}

vhls::SynthesisReport synthesizeModule(lir::Module &module,
                                       const FlowOptions &options,
                                       DiagnosticEngine &diags) {
  FlowResult result;
  FlowState s(options, result, diags);
  s.borrowed = &module;
  s.top = options.synthesis.topFunction;
  if (options.useStageCache)
    s.lirText() = lir::printModule(module);
  bool hit = false;
  runStage(kSynthRow, s, hit);
  return std::move(result.synth);
}

lir::Module *FlowResult::module(std::string *error) const {
  if (!module_ && !lirText_.empty()) {
    DiagnosticEngine diags;
    auto ctx = std::make_unique<lir::LContext>();
    std::unique_ptr<lir::Module> parsed =
        lir::parseModule(lirText_, *ctx, diags);
    if (!parsed) {
      if (error)
        *error = "cached lir does not parse: " + diags.str();
      return nullptr;
    }
    ctx_ = std::move(ctx);
    module_ = std::move(parsed);
    std::string().swap(lirText_);
  }
  if (!module_ && error)
    *error = "no IR in flow result";
  return module_.get();
}

lir::Function *FlowResult::topFunction(std::string *error) const {
  lir::Module *m = module(error);
  lir::Function *top = m ? m->getFunction(kernelName) : nullptr;
  if (m && !top && error)
    *error = "no top function in flow result";
  return top;
}

bool cosimAgainstReference(const FlowResult &result, const KernelSpec &spec,
                           std::string &error) {
  lir::Function *top = result.topFunction(&error);
  if (!top)
    return false;
  // Seed identical inputs for device and host.
  Buffers device = makeBuffers(spec);
  seedBuffers(device);
  Buffers host = device;
  spec.reference(host);

  std::vector<void *> pointers;
  for (auto &buffer : device)
    pointers.push_back(buffer.data());

  DiagnosticEngine diags;
  interp::Interpreter interpreter(*result.module());
  auto run = interpreter.run(top, interp::pointerArgs(pointers), diags);
  if (!run) {
    error = "interpreter failed: " + diags.str();
    return false;
  }

  for (unsigned out : spec.outputs) {
    for (size_t i = 0; i < device[out].size(); ++i) {
      if (device[out][i] != host[out][i] &&
          !(std::isnan(device[out][i]) && std::isnan(host[out][i]))) {
        error = strfmt("buffer %u element %zu: device=%.17g host=%.17g", out,
                       i, device[out][i], host[out][i]);
        return false;
      }
    }
  }
  return true;
}

} // namespace mha::flow
