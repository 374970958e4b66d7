// Vhls.h - the virtual HLS backend (the repo's stand-in for Vitis HLS).
//
// Pipeline: frontend acceptance check (lir::checkHlsCompatibility) ->
// directive-driven loop unrolling -> hierarchical scheduling (list
// scheduling with operator chaining and memory-port constraints for
// straight-line regions; modulo scheduling with RecMII/ResMII for
// pipelined innermost loops) -> binding/resource estimation -> report.
//
// The backend consumes only the xlx.* directive dialect; IR that fails the
// acceptance check is rejected exactly like a frontend version mismatch in
// the paper's setting.
#pragma once

#include "lir/Function.h"
#include "vhls/Report.h"

namespace mha::vhls {

struct SynthesisOptions {
  TargetSpec target;
  /// Top function name (empty: first definition in the module).
  std::string topFunction;
  /// Reject the module on acceptance *warnings* too (strict mode).
  bool strictAcceptance = false;
};

/// Synthesizes `module`. On acceptance failure the report has
/// accepted=false and no function reports. Unroll directives mutate the
/// module in place (semantics preserved).
SynthesisReport synthesize(lir::Module &module,
                           const SynthesisOptions &options,
                           DiagnosticEngine &diags);

} // namespace mha::vhls
