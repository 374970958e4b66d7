#include "lir/Function.h"
#include "lir/analysis/Dominators.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"

#include <functional>
#include <map>
#include <tuple>

namespace mha::lir {

namespace {

metrics::Counter &numEliminated = metrics::statistic(
    "cse", "eliminated", "redundant instructions eliminated");

/// Structural key for pure instructions. Commutative binops canonicalize
/// operand order by pointer so a+b and b+a unify.
using CSEKey = std::tuple<Opcode, int /*pred*/, const void * /*type*/,
                          const void * /*srcElemTy*/,
                          std::vector<const void *> /*operands*/>;

bool isCSECandidate(const Instruction &inst) {
  if (inst.hasSideEffects() || inst.opcode() == Opcode::Phi ||
      inst.opcode() == Opcode::Load || inst.opcode() == Opcode::Alloca)
    return false;
  return true;
}

CSEKey keyOf(const Instruction &inst) {
  std::vector<const void *> ops;
  ops.reserve(inst.numOperands());
  for (unsigned i = 0; i < inst.numOperands(); ++i)
    ops.push_back(inst.operand(i));
  if (inst.isCommutative() && ops.size() == 2 && ops[0] > ops[1])
    std::swap(ops[0], ops[1]);
  return {inst.opcode(), static_cast<int>(inst.predicate()), inst.type(),
          inst.sourceElemType(), std::move(ops)};
}

class CSE : public FunctionPass {
public:
  std::string name() const override { return "cse"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    if (fn.isDeclaration())
      return false;
    DominatorTree domTree(fn);
    std::map<BasicBlock *, std::vector<BasicBlock *>> domChildren;
    for (BasicBlock *bb : domTree.rpo())
      if (BasicBlock *parent = domTree.idom(bb))
        domChildren[parent].push_back(bb);

    std::map<CSEKey, Instruction *> available;
    bool changed = false;
    // Recursive DFS over the dominator tree with scope rollback.
    std::function<void(BasicBlock *)> visit = [&](BasicBlock *bb) {
      std::vector<std::pair<CSEKey, Instruction *>> shadowed;
      std::vector<Instruction *> dead;
      for (auto &instPtr : *bb) {
        Instruction *inst = instPtr.get();
        if (!isCSECandidate(*inst))
          continue;
        CSEKey key = keyOf(*inst);
        auto it = available.find(key);
        if (it != available.end()) {
          inst->replaceAllUsesWith(it->second);
          dead.push_back(inst);
          stats["cse.eliminated"]++;
          ++numEliminated;
          changed = true;
        } else {
          shadowed.push_back({key, nullptr});
          available.emplace(std::move(key), inst);
        }
      }
      for (Instruction *inst : dead)
        inst->eraseFromParent();
      for (BasicBlock *child : domChildren[bb])
        visit(child);
      for (auto &[key, prev] : shadowed)
        available.erase(key);
    };
    visit(fn.entry());
    return changed;
  }
};

} // namespace

std::unique_ptr<ModulePass> createCSEPass() { return std::make_unique<CSE>(); }

} // namespace mha::lir
