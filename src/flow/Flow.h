// Flow.h - end-to-end flow drivers for the paper's two compilation paths.
//
//   Adaptor flow (the paper's):  MLIR -> [affine opts] -> scf -> LLVM IR
//     (modern conventions) -> HLS Adaptor -> HLS-readable IR -> virtual HLS
//   HLS C++ flow (baseline):     MLIR -> [affine opts] -> HLS C++ text ->
//     C frontend (+O2-lite) -> HLS IR -> virtual HLS
//
// Both paths end in the same backend; the experiments compare their
// post-synthesis latency/resources and their compile time, plus functional
// equivalence through the interpreter.
//
// All entries run one driver over a table of three stages — mlirOpt, a
// bridge row per path, synth (the direct-LIR entry skips mlirOpt). The
// driver owns cancellation, progress, spans, timing windows, StageCache
// lookups and stores and the result epilogue; an entry only picks its
// bridge row and seeds the run's inputs.
#pragma once

#include "adaptor/Adaptor.h"
#include "flow/Kernels.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lowering/Lowering.h"
#include "support/Diagnostics.h"
#include "vhls/Vhls.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mha::flow {

enum class FlowKind { Adaptor, HlsCpp };

/// Short human/JSON name for a flow kind ("adaptor" / "hls-c++").
const char *flowKindName(FlowKind kind);

struct StageTimings {
  double mlirOptMs = 0;   // shared MLIR-level preparation (both flows)
  double bridgeMs = 0;    // scf-conversion+lowering+adaptor OR emission+frontend
  double synthMs = 0;     // virtual HLS
  double totalMs = 0;
};

/// A named sub-stage measurement attributed to one of the three timing
/// windows ("mlirOpt", "bridge", "synth"). The span list makes timing
/// attribution auditable: tests assert both flows charge the same work to
/// mlirOptMs (Table 4 compares like with like), and the batch tracer
/// exports spans per job.
struct StageSpan {
  std::string stage; // "mlirOpt" | "bridge" | "synth"
  std::string name;  // e.g. "prepare-mlir", "affine-to-scf", "adaptor"
  double ms = 0;
};

struct FlowState;

/// One flow run's outputs. A FlowResult is used by one thread at a time,
/// as BatchRunner, mha-serve and the DSE evaluator do: module() and
/// topFunction() may build the module inside a const call.
struct FlowResult {
  bool ok = false;
  /// The run was abandoned at a stage boundary because
  /// FlowOptions::cancelFlag was set (cooperative cancellation — the
  /// compile-service path). Always implies !ok.
  bool cancelled = false;
  /// The synthesis stage (the final result) was served from the
  /// StageCache — the whole-pipeline "warm hit" signal mha-serve reports.
  bool synthFromCache = false;
  FlowKind kind = FlowKind::Adaptor;
  std::string kernelName;
  vhls::SynthesisReport synth;
  lir::PassStats adaptorStats; // adaptor flow only
  StageTimings timings;
  std::vector<StageSpan> spans;
  std::string hlsCpp;          // baseline flow only: the emitted C++
  std::string diagnostics;     // rendered diagnostics (errors/warnings)

  /// The final HLS IR, kept alive with its context for co-simulation.
  /// After a StageCache bridge hit the result holds only the cached lir
  /// text: a synth miss parses it, and otherwise the first call here does
  /// (the bridge-state module an uncached run would hold). Null when the
  /// flow built no IR or that parse fails; `error`, if given, then says
  /// why, with the parser's diagnostics.
  lir::Module *module(std::string *error = nullptr) const;
  /// The kernel's function in module(); null, with `error` set, when
  /// there is none.
  lir::Function *topFunction(std::string *error = nullptr) const;
  /// Whether the module exists without a parse: false after a full cache
  /// hit until module() is first called.
  bool moduleBuilt() const { return module_ != nullptr; }

private:
  friend struct FlowState;
  // The printed module: the bridge output while the flow runs with the
  // cache on (it addresses synth), then pending until module() parses it.
  mutable std::string lirText_;
  // The module dies before its context (its destructor walks
  // context-owned constants).
  mutable std::unique_ptr<lir::LContext> ctx_;
  mutable std::unique_ptr<lir::Module> module_;
};

struct FlowOptions {
  vhls::SynthesisOptions synthesis;
  adaptor::AdaptorOptions adaptor;
  /// Empty: the lowering has no settings (see lowering::LoweringOptions).
  lowering::LoweringOptions lowering;
  /// Cross-layer choice: honour hls.unroll directives by unrolling at the
  /// *MLIR* level (before either bridge) instead of letting the HLS
  /// backend unroll. The adaptor flow then carries pre-unrolled IR; the
  /// C++ flow emits pre-unrolled source.
  bool unrollAtMlirLevel = false;
  /// Consult the process-global StageCache: hash each stage's input and
  /// skip the stage when its output is already cached (incremental
  /// recompilation). Off by default; cold-run output is identical either
  /// way. Shared by BatchRunner jobs, the DSE evaluator and the fuzz
  /// oracle whenever their FlowOptions enable it.
  bool useStageCache = false;
  /// Cooperative cancellation: when non-null, the flow checks the flag at
  /// every stage boundary (before mlirOpt, bridge and synth) and abandons
  /// the run with FlowResult::cancelled set instead of starting the next
  /// stage. Mid-stage work is never interrupted — a cancelled flow still
  /// leaves the process in a consistent state (the StageCache keeps any
  /// stage that completed).
  const std::atomic<bool> *cancelFlag = nullptr;
  /// Stage-progress observer: called at the start of each stage
  /// ("mlirOpt", "bridge", "synth") from the flow's thread. mha-serve
  /// streams these as per-stage progress events to the requesting client.
  std::function<void(const char *stage)> onStage;
};

/// The paper's direct-IR path.
FlowResult runAdaptorFlow(const KernelSpec &spec, const KernelConfig &config,
                          const FlowOptions &options = {});

/// The MLIR->HLS-C++ baseline path.
FlowResult runHlsCppFlow(const KernelSpec &spec, const KernelConfig &config,
                         const FlowOptions &options = {});

/// Direct-LIR entry: parses `lirText` (a possibly multi-function module
/// with calls/recursion), runs the adaptor pipeline and synthesizes
/// `topFunction`. The whole input module addresses the bridge stage of
/// the StageCache, so an edit anywhere — including a callee body — is a
/// cache miss. `topFunction` empty picks the module's only function and
/// errors when that is ambiguous.
FlowResult runLirAdaptorFlow(const std::string &lirText,
                             const std::string &topFunction,
                             const FlowOptions &options = {});

/// The flows' synth stage on a module the caller built and owns (the fuzz
/// oracle's backend legs): synthesizes options.synthesis.topFunction, and
/// with options.useStageCache shares the flows' synth cache entries (the
/// key hashes the printed module). Only accepted reports are cached.
vhls::SynthesisReport synthesizeModule(lir::Module &module,
                                       const FlowOptions &options,
                                       DiagnosticEngine &diags);

/// How compareWithReference passes the buffers to the top function: one
/// flat pointer per array (post-adaptor IR, the C++ frontend's IR) or one
/// memref descriptor per array (freshly lowered LIR).
enum class ArgConvention { Pointer, Descriptor };

/// What compareWithReference found.
struct CosimCheck {
  enum class Status { Match, InterpError, Mismatch };
  Status status = Status::Match;
  /// The interpreter's diagnostics, or the first mismatching element.
  std::string detail;

  bool matched() const { return status == Status::Match; }
};

/// The one co-simulation check. Interprets `top` (a function of `module`)
/// on freshly seeded buffers (seedBuffers' default seed) and compares every
/// output buffer of `spec` bit-exactly against `host`, the seeded buffers
/// after spec.reference; two NaNs compare equal. cosimAgainstReference and
/// every stage of the fuzz oracle's kernel mode call it.
CosimCheck compareWithReference(lir::Module &module, lir::Function &top,
                                const KernelSpec &spec, const Buffers &host,
                                ArgConvention convention);

/// Executes the flow's final IR against the host reference under the
/// pointer convention (compareWithReference). Returns true when every
/// output buffer matches bit-for-bit; `error` explains any mismatch.
bool cosimAgainstReference(const FlowResult &result, const KernelSpec &spec,
                           std::string &error);

} // namespace mha::flow
