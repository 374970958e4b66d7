// Adaptor.h - the MLIR HLS Adaptor for LLVM IR (the paper's contribution).
//
// A pass pipeline that rewrites the LLVM IR produced by the direct MLIR
// lowering into "HLS-readable IR": the restricted, older-dialect IR the
// (Vitis-style) HLS frontend accepts. The pipeline bridges every element
// of the version/convention gap:
//
//   1. memref-descriptor-elimination  — collapse each (allocPtr, alignedPtr,
//      offset, sizes, strides) argument group into one array pointer and
//      constant-fold the geometry,
//   2. intrinsic-legalize             — llvm.memcpy -> copy loop nest,
//      llvm.fmuladd -> fmul+fadd, llvm.smax/smin -> icmp+select,
//      llvm.sqrt/exp/fabs -> hls_* math calls,
//   3. gep-canonicalize               — delinearize flat pointer arithmetic
//      back into shaped multi-dimensional GEPs (recovers array structure
//      for BRAM mapping and partitioning),
//   4. pointer-type-recovery          — opaque `ptr` -> typed pointers,
//   5. metadata-convert               — llvm.loop.* directives -> xlx.*,
//      partition function-attrs -> xlx.array_partition argument metadata,
//   6. attribute-scrub                — drop modern-only attributes,
//   7. hls-compat-verify              — final acceptance check against the
//      shared lir::checkHlsCompatibility contract.
//
// Call legalization (rec2iter, inlining, call-site privatization) runs
// first, and standard scalar cleanups (instcombine/dce/simplifycfg) run
// between stages, as the paper's flow does inside opt.
#pragma once

#include "lir/PassManager.h"

#include <memory>

namespace mha::adaptor {

/// Default explicit-stack depth for rewritten self-recursion (a
/// `mha.rec_depth=N` function attribute overrides it per function).
inline constexpr unsigned kRecursionDepth = 64;

struct AdaptorOptions {
  /// Inliner size budget (instructions); callees above it stay calls.
  unsigned inlineBudget = 256;
  /// Function the inliner must keep even when fully inlined away (the
  /// flow's synthesis top); empty keeps every never-called function only.
  std::string topFunction;

  /// Skip switches for the ablation bench (fig4): each disables one stage.
  bool runDescriptorElimination = true;
  bool runIntrinsicLegalize = true;
  bool runGepCanonicalize = true;
  bool runPointerTypeRecovery = true;
  bool runMetadataConvert = true;
  bool runAttributeScrub = true;
  /// Run the final acceptance verification (diagnoses, never mutates).
  bool verifyCompat = true;
};

/// Individual pass factories (composable for tests/ablation).
std::unique_ptr<lir::ModulePass> createDescriptorEliminationPass();
std::unique_ptr<lir::ModulePass> createIntrinsicLegalizePass();
std::unique_ptr<lir::ModulePass> createGepCanonicalizePass();
std::unique_ptr<lir::ModulePass> createPointerTypeRecoveryPass();
std::unique_ptr<lir::ModulePass> createMetadataConvertPass();
std::unique_ptr<lir::ModulePass> createAttributeScrubPass();
std::unique_ptr<lir::ModulePass> createHlsCompatVerifyPass();

/// Populates `pm` with the full adaptor pipeline per `options`.
void buildAdaptorPipeline(lir::PassManager &pm, const AdaptorOptions &options);

/// The pipeline's first stage, call legalization for multi-function
/// input: rec2iter (kRecursionDepth), the bottom-up inliner (budget
/// options.inlineBudget, keeping options.topFunction), call-site
/// privatization, then dce and simplifycfg. buildAdaptorPipeline starts
/// with it, and the fuzz oracle's calls mode checks exactly these passes.
void buildCallLegalizationPipeline(lir::PassManager &pm,
                                   const AdaptorOptions &options);

/// Directive metadata keys in the HLS frontend's dialect (xlx.*).
namespace xlx {
inline constexpr const char *Pipeline = "xlx.pipeline";
inline constexpr const char *Unroll = "xlx.unroll";
inline constexpr const char *TripCount = "xlx.tripcount";
inline constexpr const char *Dataflow = "xlx.dataflow";
inline constexpr const char *ArrayPartition = "xlx.array_partition";
} // namespace xlx

} // namespace mha::adaptor
