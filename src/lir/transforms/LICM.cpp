#include "lir/Function.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"

#include <set>

namespace mha::lir {

namespace {

metrics::Counter &numHoisted = metrics::statistic(
    "licm", "hoisted", "loop-invariant instructions hoisted");

class LICM : public FunctionPass {
public:
  std::string name() const override { return "licm"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    if (fn.isDeclaration())
      return false;
    bool changed = false;
    // Hoisting can enable more hoisting in enclosing loops; iterate.
    bool local = true;
    while (local) {
      local = false;
      DominatorTree domTree(fn);
      LoopInfo loopInfo(fn, domTree);
      for (const auto &loop : loopInfo.loops())
        local |= hoistFromLoop(*loop, stats);
      changed |= local;
    }
    return changed;
  }

private:
  /// True when `inst` can move: pure, and every operand defined outside
  /// the loop. Phis never move; neither does anything touching memory.
  bool isHoistable(const Instruction &inst, const Loop &loop) {
    switch (inst.opcode()) {
    case Opcode::Phi:
    case Opcode::Load:
    case Opcode::Store:
    case Opcode::Call:
    case Opcode::Alloca:
      return false;
    // Division can trap; never speculate it above the loop guard.
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::FDiv:
      return false;
    default:
      break;
    }
    if (inst.isTerminator())
      return false;
    for (unsigned i = 0; i < inst.numOperands(); ++i) {
      const auto *def = dyn_cast<Instruction>(inst.operand(i));
      if (def && loop.contains(def))
        return false;
    }
    return true;
  }

  bool hoistFromLoop(Loop &loop, PassStats &stats) {
    BasicBlock *preheader = loop.preheader();
    if (!preheader)
      return false;
    Instruction *insertBefore = preheader->terminator();
    if (!insertBefore)
      return false;

    bool changed = false;
    bool progress = true;
    while (progress) {
      progress = false;
      for (BasicBlock *bb : loop.blocks()) {
        for (Instruction *inst : collectInsts(bb)) {
          if (!isHoistable(*inst, loop))
            continue;
          std::unique_ptr<Instruction> owned = inst->removeFromParent();
          preheader->insert(preheader->positionOf(insertBefore),
                            std::move(owned));
          stats["licm.hoisted"]++;
          ++numHoisted;
          progress = changed = true;
        }
      }
    }
    return changed;
  }

  static std::vector<Instruction *> collectInsts(BasicBlock *bb) {
    std::vector<Instruction *> out;
    for (auto &inst : *bb)
      out.push_back(inst.get());
    return out;
  }
};

} // namespace

std::unique_ptr<ModulePass> createLICMPass() {
  return std::make_unique<LICM>();
}

} // namespace mha::lir
