// Reducer.h - bugpoint-style greedy test-case reduction.
//
// Given a program the oracle flags and the failure it produced, the
// reducer repeatedly applies structural shrinking edits (drop statements,
// peel loop levels, shrink bounds, hoist expression children, zero
// constants / dead-code-eliminate instructions) and keeps any edit after
// which the oracle still reports the SAME failure (kind + stage). Greedy
// first-improvement with a bounded attempt budget: candidate evaluation
// dominates cost, so the loop restarts its scan after every accepted edit.
// The three modes differ only in their edits and their oracle; one loop
// reduces them all.
#pragma once

#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"

namespace mha::fuzz {

struct ReducerOptions {
  /// Cap on oracle evaluations (each candidate costs one full pipeline
  /// run in kernel mode).
  int maxAttempts = 2000;
};

struct ReductionTrace {
  size_t initialSize = 0;
  size_t finalSize = 0;
  int attempts = 0; // oracle evaluations spent
  int accepted = 0; // edits that kept the failure alive
};

/// Shrinks a kernel-mode reproducer. `failure` is the oracle result the
/// original program produced; the reduced program still produces a failure
/// with the same kind and stage under `oracle`.
Program reduceKernel(const Program &program, const OracleResult &failure,
                     const OracleOptions &oracle,
                     const ReducerOptions &options = {},
                     ReductionTrace *trace = nullptr);

/// Shrinks an IR-mode reproducer (same contract as reduceKernel).
IrProgram reduceIr(const IrProgram &program, const OracleResult &failure,
                   const OracleOptions &oracle,
                   const ReducerOptions &options = {},
                   ReductionTrace *trace = nullptr);

/// Shrinks a calls-mode reproducer (same contract as reduceKernel).
/// Calls-mode ops are pure and terminating, so edits may drop any op the
/// return does not reach, replace call sites with bitwise ops, strip
/// noinline/recursion/array features and zero constants.
CallProgram reduceCalls(const CallProgram &program,
                        const OracleResult &failure,
                        const OracleOptions &oracle,
                        const ReducerOptions &options = {},
                        ReductionTrace *trace = nullptr);

} // namespace mha::fuzz
