// Dependence.h - loop memory-dependence analysis for pipelining.
//
// For the canonical counted loops both flows produce, memory subscripts are
// linear in the induction variable (outer-loop IVs appear as symbols). The
// analysis recovers those linear forms from shaped GEPs, solves for the
// iteration distance between conflicting accesses, and feeds the modulo
// scheduler's recurrence-MII computation — the mechanism behind the paper's
// pipeline-II results.
#pragma once

#include "lir/analysis/LoopInfo.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace mha::lir {

class Instruction;
class Value;

/// coef*iv + constant + sum(symCoef_i * sym_i). Symbols are SSA values
/// invariant in the analyzed loop (outer IVs, arguments).
struct LinearSubscript {
  bool valid = false;
  int64_t ivCoef = 0;
  int64_t constant = 0;
  std::vector<std::pair<const Value *, int64_t>> symbols;

  bool sameSymbols(const LinearSubscript &other) const;
};

/// One load/store inside the loop body, resolved to its base array.
struct MemAccess {
  Instruction *inst = nullptr;
  const Value *base = nullptr; // argument or alloca the GEP roots at
  /// Linear forms of the GEP's indices, from GEP operand `firstIndex` on
  /// (past the leading zero of a shaped GEP). Empty, with `firstIndex`
  /// 0, unless the address is one GEP straight off the base.
  std::vector<LinearSubscript> subscripts;
  unsigned firstIndex = 0;
  unsigned pos = 0; // program-order position of `inst` in its block
  bool isStore = false;
  bool affine = false; // all subscripts linear in the iv
};

/// A (possibly loop-carried) dependence edge src -> dst between two
/// accesses, named by their index in the analyzed access list: the access
/// `dst` in iteration i+distance conflicts with `src` in iteration i.
struct LoopDependence {
  unsigned src = 0;
  unsigned dst = 0;
  int64_t distance = 0; // 0 = intra-iteration ordering edge
};

/// Linearizes `v` with respect to `iv`; every non-iv leaf becomes a symbol.
LinearSubscript linearizeInIV(const Value *v, const Value *iv);

/// Collects all loads/stores in the loop body blocks with their subscripts,
/// block by block in program order.
std::vector<MemAccess> collectLoopAccesses(const CanonicalLoop &loop);

/// Computes dependence edges among `accesses` (store/load, store/store,
/// load/store pairs on the same base). Non-affine accesses get conservative
/// distance-1 edges against every other access to the same base.
/// Same-iteration edges follow the accesses' `pos` order.
std::vector<LoopDependence>
analyzeLoopDependences(const std::vector<MemAccess> &accesses);

} // namespace mha::lir
