// Kernels.h - PolyBench-style workload generators.
//
// Each kernel builds a MiniMLIR module at the affine level (the shared
// entry point of both flows), carries its buffer geometry for co-simulation
// and provides a host reference implementation. Directives (pipeline,
// unroll, array partition) are applied per KernelConfig — the ScaleHLS-
// style design knobs the experiments sweep.
#pragma once

#include "mir/Builder.h"
#include "mir/MContext.h"

#include <functional>
#include <string>
#include <vector>

namespace mha::flow {

struct KernelConfig {
  /// Pipeline II directive for innermost compute loops (0 = none).
  int64_t pipelineII = 1;
  /// Unroll directive for innermost compute loops (1 = none).
  int64_t unrollFactor = 1;
  /// Cyclic array-partition factor on the kernel's hot arrays (1 = none).
  int64_t partitionFactor = 1;
  /// Function-level dataflow directive (task-level pipelining of the
  /// top-level loop nests; effective on multi-nest kernels).
  bool dataflow = false;
  /// Master switch (false: plain code, the unoptimized baseline).
  bool applyDirectives = true;
};

/// Host-side buffers for co-simulation: one flat double vector per memref
/// argument, in argument order.
using Buffers = std::vector<std::vector<double>>;

struct KernelSpec {
  std::string name;
  std::string description;
  /// Shapes of the memref arguments, in order.
  std::vector<std::vector<int64_t>> bufferShapes;
  /// Indices of buffers the kernel writes (checked by co-sim).
  std::vector<unsigned> outputs;
  /// Builds the kernel module with directives from `config`.
  std::function<mir::OwnedModule(mir::MContext &, const KernelConfig &)>
      build;
  /// Computes the expected outputs in place (inputs pre-filled).
  std::function<void(Buffers &)> reference;

  /// Flat element count of buffer `i`.
  int64_t bufferSize(unsigned i) const {
    int64_t n = 1;
    for (int64_t d : bufferShapes[i])
      n *= d;
    return n;
  }
};

/// All benchmark kernels (gemm, 2mm, atax, bicg, gesummv, mvt, syrk, fir,
/// conv2d, jacobi2d).
const std::vector<KernelSpec> &allKernels();

/// Lookup by name (nullptr if unknown).
const KernelSpec *findKernel(const std::string &name);

/// "available kernels: gemm, mm2, ..." — what a failed findKernel lookup
/// should print so the user can correct the name without reading code.
std::string availableKernelsHint();

/// A generated single-loop FIR, y[i] = sum_t coeffs[t] * x[i + t] for i in
/// [0, trip), under `config`'s pipeline, unroll and cyclic-partition
/// directives (partition on both arrays). Its one innermost loop body grows
/// linearly with the unroll factor, which makes it the probe for how
/// synthesis cost scales with body size.
KernelSpec makeLongTripFir(const std::string &name, int64_t trip,
                           std::vector<double> coeffs);

/// `copies` renamed copies (@<name>_0, @<name>_1, ...) of `spec`'s kernel,
/// built under `config` and printed as one MLIR module: an inline-MLIR
/// payload whose directives are baked into its hls.* attributes.
std::string replicatedKernelMlir(const KernelSpec &spec,
                                 const KernelConfig &config, int copies);

/// Deterministically fills every buffer (inputs and outputs) with small
/// pseudo-random values; call before reference/co-sim.
void seedBuffers(Buffers &buffers, uint64_t seed = 42);

/// Allocates buffers matching `spec`.
Buffers makeBuffers(const KernelSpec &spec);

} // namespace mha::flow
