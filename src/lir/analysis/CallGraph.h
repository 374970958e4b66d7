// CallGraph.h - module call graph over direct calls.
//
// The adaptor's call-legalization passes (Rec2Iter, Inliner,
// CallSitePrivatization) all need the same three questions answered: who
// calls whom, which functions sit on call cycles, and what a bottom-up
// (callees-first) processing order looks like. The graph is a snapshot —
// passes that mutate the module rebuild it.
#pragma once

#include "lir/Function.h"

#include <map>
#include <set>
#include <vector>

namespace mha::lir {

class Instruction;

class CallGraph {
public:
  explicit CallGraph(Module &module);

  /// All call instructions in the module whose callee is `fn`.
  const std::vector<Instruction *> &callSitesOf(const Function *fn) const;

  /// True if `fn` contains a direct call to itself.
  bool isSelfRecursive(const Function *fn) const;

  /// True if `fn` is on any call cycle (self- or mutual recursion).
  bool isRecursive(const Function *fn) const;

  /// Defined functions in bottom-up order: every function appears after all
  /// callees that are not in the same cycle. Members of one cycle appear
  /// adjacent, in an arbitrary relative order.
  const std::vector<Function *> &postOrder() const { return postOrder_; }

private:
  struct Node {
    std::vector<Function *> callees;
    std::vector<Instruction *> callSites; // calls *to* this function
    bool selfRecursive = false;
    bool recursive = false;
  };

  const Node &node(const Function *fn) const;

  std::map<const Function *, Node> nodes_;
  std::vector<Function *> postOrder_;
};

} // namespace mha::lir
