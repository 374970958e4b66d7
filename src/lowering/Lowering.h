// Lowering.h - direct MLIR -> LLVM IR conversion (the paper's "MLIR flow").
//
// Converts a MiniMLIR module at the scf level (run createAffineToScfPass
// first) into MiniLLVM IR following modern MLIR conventions:
//   * memref arguments expand into descriptor scalar groups
//     (allocPtr, alignedPtr, offset, size0..N, stride0..N),
//   * pointers are opaque,
//   * memref accesses linearize into flat `gep elemTy, ptr, linear`,
//   * memref.copy becomes @llvm.memcpy,
//   * mulf+addf chains fuse into @llvm.fmuladd,
//   * loop directives become llvm.loop.* metadata on the loop latch.
//
// This is exactly the IR shape the Vitis-style HLS frontend rejects; the
// adaptor (src/adaptor) rewrites it into HLS-readable IR.
#pragma once

#include "lir/Function.h"
#include "mir/Ops.h"
#include "support/Diagnostics.h"

#include <memory>

namespace mha::lowering {

/// The lowering has no settings: it always emits the one convention
/// listed above, the one the adaptor rewrites. This empty struct remains
/// only because perfbench's flow replay passes FlowOptions::lowering to
/// lowerToLIR.
struct LoweringOptions {};

/// Metadata key marking the first argument of a memref descriptor group:
/// !mha.memref !{ !"<name>", !"<elemTy>", i64 rank, i64 dim0, ... }.
inline constexpr const char *kMemRefGroupMD = "mha.memref";

/// Function attribute prefix recording MLIR-level array partition
/// directives: "mha.partition=<argIdx>:<dim>:<factor>:<kind>".
inline constexpr const char *kPartitionAttrPrefix = "mha.partition=";

/// Modern loop-metadata keys emitted on loop latch branches.
inline constexpr const char *kLoopPipelineMD = "llvm.loop.pipeline.enable";
inline constexpr const char *kLoopUnrollMD = "llvm.loop.unroll.count";
inline constexpr const char *kLoopTripCountMD = "llvm.loop.tripcount";
inline constexpr const char *kLoopDataflowMD = "llvm.loop.dataflow.enable";

/// Lowers `module` (scf level) into a fresh MiniLLVM module. Returns
/// nullptr on error.
std::unique_ptr<lir::Module> lowerToLIR(mir::ModuleOp module,
                                        lir::LContext &ctx,
                                        const LoweringOptions &options,
                                        DiagnosticEngine &diags);

} // namespace mha::lowering
