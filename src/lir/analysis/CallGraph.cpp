#include "lir/analysis/CallGraph.h"

#include "lir/Instruction.h"

#include <algorithm>
#include <functional>

namespace mha::lir {

CallGraph::CallGraph(Module &module) {
  std::vector<Function *> fns = module.functions();
  for (Function *fn : fns)
    nodes_[fn];

  for (Function *fn : fns) {
    Node &n = nodes_[fn];
    for (BasicBlock *bb : fn->blockPtrs()) {
      for (auto &inst : *bb) {
        if (inst->opcode() != Opcode::Call)
          continue;
        Function *callee = inst->calledFunction();
        if (!callee)
          continue;
        nodes_[callee].callSites.push_back(inst.get());
        if (std::find(n.callees.begin(), n.callees.end(), callee) ==
            n.callees.end())
          n.callees.push_back(callee);
        if (callee == fn)
          n.selfRecursive = true;
      }
    }
  }

  // Tarjan SCC over defined functions: assigns each function a component;
  // a function is recursive iff its component has >1 member or it calls
  // itself. Components complete callees-first, which is exactly the
  // bottom-up order the inliner wants.
  std::map<Function *, int> index, lowlink;
  std::vector<Function *> stack;
  std::set<Function *> onStack;
  int nextIndex = 0;

  std::function<void(Function *)> strongConnect = [&](Function *fn) {
    index[fn] = lowlink[fn] = nextIndex++;
    stack.push_back(fn);
    onStack.insert(fn);
    for (Function *callee : nodes_[fn].callees) {
      if (callee->isDeclaration())
        continue;
      if (!index.count(callee)) {
        strongConnect(callee);
        lowlink[fn] = std::min(lowlink[fn], lowlink[callee]);
      } else if (onStack.count(callee)) {
        lowlink[fn] = std::min(lowlink[fn], index[callee]);
      }
    }
    if (lowlink[fn] == index[fn]) {
      std::vector<Function *> component;
      Function *member = nullptr;
      do {
        member = stack.back();
        stack.pop_back();
        onStack.erase(member);
        component.push_back(member);
      } while (member != fn);
      bool cyclic = component.size() > 1;
      // Reverse so members appear in DFS-discovery order within the cycle.
      std::reverse(component.begin(), component.end());
      for (Function *m : component) {
        if (cyclic)
          nodes_[m].recursive = true;
        postOrder_.push_back(m);
      }
    }
  };

  for (Function *fn : fns)
    if (!fn->isDeclaration() && !index.count(fn))
      strongConnect(fn);

  for (auto &[fn, n] : nodes_)
    if (n.selfRecursive)
      n.recursive = true;
}

const CallGraph::Node &CallGraph::node(const Function *fn) const {
  static const Node empty;
  auto it = nodes_.find(fn);
  return it == nodes_.end() ? empty : it->second;
}

const std::vector<Instruction *> &
CallGraph::callSitesOf(const Function *fn) const {
  return node(fn).callSites;
}

bool CallGraph::isSelfRecursive(const Function *fn) const {
  return node(fn).selfRecursive;
}

bool CallGraph::isRecursive(const Function *fn) const {
  return node(fn).recursive;
}

} // namespace mha::lir
