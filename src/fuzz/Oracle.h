// Oracle.h - differential oracle over the compilation pipeline.
//
// A generated program is "interesting" when any pipeline stage disagrees
// with the host reference (or fails to compile at all). The oracle runs
// every executable stage pair and reports the FIRST diverging stage:
//
//   kernel mode:  structured MLIR -> {HLS-C++ frontend IR, lowered LIR,
//                 post-adaptor HLS IR} each co-simulated bit-exactly by
//                 flow::compareWithReference, plus virtual-HLS acceptance;
//   ir mode:      .lir print/parse round-trip -> interpreter vs host
//                 reference per argument set (including trap agreement),
//                 then the O2-lite transform pipeline re-checked on
//                 UB-free programs;
//   calls mode:   multi-function .lir -> interpreter vs host reference per
//                 argument set, then the call-legalization pipeline
//                 re-checked, plus virtual-HLS acceptance.
//
// The ir and calls stages share one argument-set check, so a mismatch
// detail reads the same in every mode ("argset N: interp=X reference=Y").
// Stages are checked at stage boundaries only; a check per pass (naming the
// pass that diverged) would call the same two comparisons from a pass hook.
#pragma once

#include "flow/Kernels.h"
#include "fuzz/ProgramGen.h"

#include <functional>
#include <string>

namespace mha::lir {
class Module;
}

namespace mha::fuzz {

enum class FailureKind {
  None,
  FlowError,   // a stage failed to produce output (build/parse/lowering)
  Verifier,    // a stage produced IR its verifier rejects
  InterpError, // the interpreter diagnosed an error executing a stage
  Mismatch,    // a stage executed but disagrees with the host reference
};

const char *failureKindName(FailureKind kind);

struct OracleResult {
  bool ok = true;
  FailureKind kind = FailureKind::None;
  std::string stage;  // first diverging stage, e.g. "adaptor", "o2-lite"
  std::string detail; // diagnostics or the first mismatching element

  bool failed() const { return !ok; }
  /// Two results describe the same bug class (the reducer's notion of
  /// "still interesting": same kind at the same stage).
  bool sameFailure(const OracleResult &other) const {
    return ok == other.ok && kind == other.kind && stage == other.stage;
  }
};

struct OracleOptions {
  /// Directive configuration applied to kernel-mode programs.
  flow::KernelConfig config;
  /// Require the virtual HLS backend to accept the post-adaptor IR.
  bool runVhls = true;
  /// Run the MLIR -> HLS-C++ -> frontend leg (kernel mode).
  bool runHlsCppLeg = true;
  /// Run the O2-lite transform differential (ir mode, UB-free programs).
  bool runTransforms = true;
  /// Share the process-global flow StageCache for the synthesis leg: two
  /// programs whose post-adaptor IR prints identically skip the second
  /// synthesis. Only the pure backend leg is cached — the differential
  /// stages must always execute to attribute divergences.
  bool useStageCache = false;
  /// Test hook: mutate each mode's transformed module before it is
  /// checked — kernel mode's post-adaptor module, ir mode's post-O2-lite
  /// module, calls mode's legalized module. The oracle/reducer tests and
  /// mha-fuzz --plant install a planted miscompile here and must catch it.
  std::function<void(lir::Module &)> mutateAdaptorModule;
};

/// Planted miscompiles for OracleOptions::mutateAdaptorModule. Each
/// rewrites one instruction's second operand to its first (a+b -> a+a):
/// the first fadd, which kernel-mode programs (floating point) carry...
void plantFAddMiscompile(lir::Module &module);
/// ...or the first add whose operands differ, for the integer-only ir
/// and calls programs.
void plantAddMiscompile(lir::Module &module);
/// The plant for the module's fuzz mode: plantAddMiscompile on ir and
/// calls programs (top @fuzz_ir or @fuzz_calls), plantFAddMiscompile on
/// kernel programs.
void plantMiscompile(lir::Module &module);

/// Differentially checks a kernel-mode program across all pipeline stages.
OracleResult checkKernel(const Program &program,
                         const OracleOptions &options = {});

/// Differentially checks an IR-mode program (round-trip, interpretation,
/// transforms) against evalIrReference on every argument set.
OracleResult checkIr(const IrProgram &program,
                     const OracleOptions &options = {});

/// Differentially checks a calls-mode program: parses the multi-function
/// module, interprets it against evalCallsReference on every argument
/// set, runs the call-legalization pipeline (rec2iter, inlining,
/// call-site privatization + cleanups) and re-checks, then (with
/// runVhls) requires the virtual HLS backend to accept the legalized
/// module.
OracleResult checkCalls(const CallProgram &program,
                        const OracleOptions &options = {});

} // namespace mha::fuzz
