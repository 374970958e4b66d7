// Oracle.cpp - staged differential checking.
//
// The kernel-mode oracle deliberately re-implements the two flow drivers'
// stage sequence instead of calling runAdaptorFlow/runHlsCppFlow: the flow
// drivers only retain the final module, while the oracle must co-simulate
// every intermediate stage to attribute a divergence to the stage that
// introduced it (lowering vs adaptor vs C++ round-trip). Each stage is
// co-simulated by flow::compareWithReference, the check
// cosimAgainstReference runs on a flow's final IR. The ir and calls modes
// check every stage with one argument-set comparison (checkArgSets). The
// backend legs, which need no intermediate module, call the flows' own
// synth stage (flow::synthesizeModule).
#include "fuzz/Oracle.h"

#include "adaptor/Adaptor.h"
#include "flow/Flow.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "interp/Interp.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/PassManager.h"
#include "lir/Verifier.h"
#include "lir/transforms/Transforms.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/StringUtils.h"

namespace mha::fuzz {

const char *failureKindName(FailureKind kind) {
  switch (kind) {
  case FailureKind::None:
    return "none";
  case FailureKind::FlowError:
    return "flow-error";
  case FailureKind::Verifier:
    return "verifier";
  case FailureKind::InterpError:
    return "interp-error";
  case FailureKind::Mismatch:
    return "mismatch";
  }
  return "?";
}

namespace {

OracleResult fail(FailureKind kind, std::string stage, std::string detail) {
  OracleResult r;
  r.ok = false;
  r.kind = kind;
  r.stage = std::move(stage);
  r.detail = std::move(detail);
  return r;
}

/// Interprets `fn` once per argument set and compares each result with
/// `expected` (same order): a set expected to trap must trap (skipped
/// when `trapsMayVanish`: a transform may fold or delete the trapping
/// operation, which is undefined behaviour), any other must return the
/// expected value, and trapping on it is a failure. `label` names the
/// interpreted result in a mismatch detail ("interp", "transformed").
/// Returns the first failure, or nullopt when every set agrees.
std::optional<OracleResult>
checkArgSets(lir::Module &module, lir::Function *fn,
             const std::vector<std::vector<int64_t>> &argSets,
             const std::vector<IrEval> &expected, const std::string &stage,
             const char *label, bool trapsMayVanish = false) {
  for (size_t s = 0; s < argSets.size(); ++s) {
    const IrEval &ref = expected[s];
    if (ref.trapped && trapsMayVanish)
      continue;
    std::vector<interp::RtValue> rtArgs;
    for (int64_t a : argSets[s])
      rtArgs.push_back(interp::RtValue::ofInt(a));
    DiagnosticEngine runDiags;
    interp::Interpreter interpreter(module);
    auto run = interpreter.run(fn, rtArgs, runDiags);
    if (ref.trapped) {
      if (run)
        return fail(FailureKind::Mismatch, stage,
                    strfmt("argset %zu: expected trap (%s), got %lld", s,
                           ref.trapReason.c_str(),
                           static_cast<long long>(run->i)));
      continue;
    }
    if (!run)
      return fail(FailureKind::InterpError, stage,
                  strfmt("argset %zu: ", s) + runDiags.str());
    if (run->i != ref.value)
      return fail(FailureKind::Mismatch, stage,
                  strfmt("argset %zu: %s=%lld reference=%lld", s, label,
                         static_cast<long long>(run->i),
                         static_cast<long long>(ref.value)));
  }
  return std::nullopt;
}

/// The backend leg (when enabled): the flows' synth stage, sharing their
/// StageCache entries when asked, must accept `module`.
std::optional<OracleResult> checkSynthesis(lir::Module &module,
                                           const std::string &top,
                                           const OracleOptions &options,
                                           DiagnosticEngine &diags) {
  if (!options.runVhls)
    return std::nullopt;
  flow::FlowOptions flowOptions;
  flowOptions.synthesis.topFunction = top;
  flowOptions.useStageCache = options.useStageCache;
  if (flow::synthesizeModule(module, flowOptions, diags).accepted)
    return std::nullopt;
  return fail(FailureKind::FlowError, "vhls",
              "synthesis rejected: " + diags.str());
}

/// Rewrites the first instruction matching `match` from a+b to a+a.
template <typename Match> void plantFirst(lir::Module &module, Match match) {
  for (lir::Function *fn : module.functions())
    for (auto &block : *fn)
      for (auto &inst : *block)
        if (match(*inst)) {
          inst->setOperand(1, inst->operand(0));
          return;
        }
}

} // namespace

void plantFAddMiscompile(lir::Module &module) {
  plantFirst(module, [](const lir::Instruction &inst) {
    return inst.opcode() == lir::Opcode::FAdd;
  });
}

void plantAddMiscompile(lir::Module &module) {
  plantFirst(module, [](const lir::Instruction &inst) {
    return inst.opcode() == lir::Opcode::Add &&
           inst.operand(0) != inst.operand(1);
  });
}

void plantMiscompile(lir::Module &module) {
  if (module.getFunction("fuzz_ir") || module.getFunction("fuzz_calls"))
    plantAddMiscompile(module);
  else
    plantFAddMiscompile(module);
}

OracleResult checkKernel(const Program &program,
                         const OracleOptions &options) {
  flow::KernelSpec spec = program.toKernelSpec();

  // Host reference outputs (the ground truth every stage must match).
  flow::Buffers host = flow::makeBuffers(spec);
  flow::seedBuffers(host);
  spec.reference(host);

  // Co-simulates one stage's module against the host reference.
  auto cosim = [&](lir::Module &stageModule, const char *stage,
                   flow::ArgConvention convention)
      -> std::optional<OracleResult> {
    lir::Function *fn = stageModule.getFunction(spec.name);
    if (!fn)
      return fail(FailureKind::FlowError, stage,
                  "top function '" + spec.name + "' missing");
    flow::CosimCheck check =
        flow::compareWithReference(stageModule, *fn, spec, host, convention);
    if (check.matched())
      return std::nullopt;
    return fail(check.status == flow::CosimCheck::Status::InterpError
                    ? FailureKind::InterpError
                    : FailureKind::Mismatch,
                stage, check.detail);
  };

  DiagnosticEngine diags;
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, options.config);
  if (!mir::verifyModule(module.get(), diags))
    return fail(FailureKind::Verifier, "mlir-build", diags.str());

  {
    mir::MPassManager pm;
    pm.add(mir::createCanonicalizePass());
    if (!pm.run(module.get(), diags))
      return fail(FailureKind::FlowError, "mlir-canonicalize", diags.str());
  }

  // Leg 1: HLS-C++ baseline (consumes the structured module, so it runs
  // before the in-place affine->scf conversion).
  if (options.runHlsCppLeg) {
    std::string cpp = hlscpp::emitHlsCpp(module.get(), diags);
    if (cpp.empty())
      return fail(FailureKind::FlowError, "emit-hls-cpp", diags.str());
    lir::LContext cctx;
    std::unique_ptr<lir::Module> cmod = hlscpp::parseHlsCpp(cpp, cctx, diags);
    if (!cmod)
      return fail(FailureKind::FlowError, "hls-frontend", diags.str());
    if (auto failure =
            cosim(*cmod, "hls-frontend", flow::ArgConvention::Pointer))
      return *failure;
  }

  // Leg 2: structured -> scf -> LIR (descriptor convention).
  {
    mir::MPassManager pm;
    pm.add(mir::createAffineToScfPass());
    pm.add(mir::createCanonicalizePass());
    if (!pm.run(module.get(), diags))
      return fail(FailureKind::FlowError, "affine-to-scf", diags.str());
  }
  lir::LContext lctx;
  std::unique_ptr<lir::Module> lowered =
      lowering::lowerToLIR(module.get(), lctx, lowering::LoweringOptions{},
                           diags);
  if (!lowered)
    return fail(FailureKind::FlowError, "lower-to-lir", diags.str());
  if (!lir::verifyModule(*lowered, diags))
    return fail(FailureKind::Verifier, "lower-to-lir", diags.str());
  if (auto failure =
          cosim(*lowered, "lowered-lir", flow::ArgConvention::Descriptor))
    return *failure;

  // Leg 3: HLS adaptor (pointer convention), in place on the lowered
  // module — exactly as runAdaptorFlow does.
  {
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::buildAdaptorPipeline(pm, adaptor::AdaptorOptions{});
    if (!pm.run(*lowered, diags))
      return fail(FailureKind::Verifier, "adaptor", diags.str());
  }
  if (options.mutateAdaptorModule)
    options.mutateAdaptorModule(*lowered);
  if (auto failure = cosim(*lowered, "adaptor", flow::ArgConvention::Pointer))
    return *failure;

  // Leg 4: the virtual HLS backend must accept what the adaptor produced.
  // This leg is a pure function of the module + options, so it can share
  // the flow stage cache (generated programs often collapse to identical
  // post-adaptor IR).
  if (auto failure = checkSynthesis(*lowered, spec.name, options, diags))
    return *failure;
  return OracleResult{};
}

OracleResult checkIr(const IrProgram &program, const OracleOptions &options) {
  std::string text = program.lir();
  DiagnosticEngine diags;
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module = lir::parseModule(text, ctx, diags);
  if (!module)
    return fail(FailureKind::FlowError, "parse",
                diags.str() + "\n" + text);
  if (!lir::verifyModule(*module, diags))
    return fail(FailureKind::Verifier, "parse", diags.str());
  lir::Function *fn = module->getFunction("fuzz_ir");
  if (!fn)
    return fail(FailureKind::FlowError, "parse", "@fuzz_ir missing");

  // Stage 1: interpreter vs host reference, including trap agreement.
  std::vector<IrEval> refs;
  for (const std::vector<int64_t> &args : program.argSets)
    refs.push_back(evalIrReference(program, args));
  if (auto failure =
          checkArgSets(*module, fn, program.argSets, refs, "interp", "interp"))
    return *failure;

  // Stage 2: the O2-lite pipeline must preserve behavior on every
  // argument set whose reference returns; a set that trapped may
  // legitimately lose its trap (DCE of a dead division), but a set that
  // returned must not start trapping.
  if (options.runTransforms) {
    lir::PassManager pm(/*verifyEach=*/true);
    pm.add(lir::createMem2RegPass());
    pm.add(lir::createInstCombinePass());
    pm.add(lir::createCSEPass());
    pm.add(lir::createDCEPass());
    pm.add(lir::createSimplifyCFGPass());
    pm.add(lir::createLICMPass());
    pm.add(lir::createDCEPass());
    if (!pm.run(*module, diags))
      return fail(FailureKind::Verifier, "o2-lite", diags.str());
    if (options.mutateAdaptorModule)
      options.mutateAdaptorModule(*module);
    if (auto failure = checkArgSets(*module, fn, program.argSets, refs,
                                    "o2-lite", "transformed",
                                    /*trapsMayVanish=*/true))
      return *failure;
  }
  return OracleResult{};
}

OracleResult checkCalls(const CallProgram &program,
                        const OracleOptions &options) {
  std::string text = program.lir();
  DiagnosticEngine diags;
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module = lir::parseModule(text, ctx, diags);
  if (!module)
    return fail(FailureKind::FlowError, "parse", diags.str() + "\n" + text);
  if (!lir::verifyModule(*module, diags))
    return fail(FailureKind::Verifier, "parse", diags.str());
  lir::Function *fn = module->getFunction("fuzz_calls");
  if (!fn)
    return fail(FailureKind::FlowError, "parse", "@fuzz_calls missing");

  // Stage 1: interpret the multi-function module (calls executed by the
  // interpreter's call stack) against the host reference. Calls-mode
  // programs are trap-free by construction, so every set must agree.
  std::vector<IrEval> refs(program.argSets.size());
  for (size_t s = 0; s < program.argSets.size(); ++s)
    refs[s].value = evalCallsReference(program, program.argSets[s]);
  if (auto failure =
          checkArgSets(*module, fn, program.argSets, refs, "interp", "interp"))
    return *failure;

  // Stage 2: the call-legalization pipeline (the passes the adaptor flow
  // front-loads, from the adaptor's own list) must preserve behavior.
  {
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::AdaptorOptions legalize;
    legalize.topFunction = "fuzz_calls";
    adaptor::buildCallLegalizationPipeline(pm, legalize);
    pm.add(lir::createMem2RegPass());
    pm.add(lir::createInstCombinePass());
    pm.add(lir::createCSEPass());
    pm.add(lir::createDCEPass());
    if (!pm.run(*module, diags))
      return fail(FailureKind::Verifier, "call-legalize", diags.str());
  }
  if (options.mutateAdaptorModule)
    options.mutateAdaptorModule(*module);
  fn = module->getFunction("fuzz_calls");
  if (!fn)
    return fail(FailureKind::FlowError, "call-legalize",
                "@fuzz_calls erased by legalization");
  if (auto failure = checkArgSets(*module, fn, program.argSets, refs,
                                  "call-legalize", "interp"))
    return *failure;

  // Stage 3: the virtual HLS backend must accept the legalized module
  // (residual noinline helpers synthesize bottom-up).
  if (auto failure = checkSynthesis(*module, "fuzz_calls", options, diags))
    return *failure;
  return OracleResult{};
}

} // namespace mha::fuzz
