#include "lir/Function.h"
#include "lir/IRBuilder.h"
#include "lir/LContext.h"
#include "lir/analysis/Dominators.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"

#include <map>
#include <set>

namespace mha::lir {

namespace {

metrics::Counter &numPromoted = metrics::statistic(
    "mem2reg", "promoted", "allocas promoted to SSA registers");

/// An alloca is promotable when every use is a load of the allocated type
/// or a store of a value of that type *to* it (never storing the pointer
/// itself anywhere).
bool isPromotable(const Instruction &alloca) {
  Type *ty = alloca.allocatedType();
  if (!ty->isFirstClass())
    return false;
  for (const Use *use : alloca.uses()) {
    const auto *user = dyn_cast<Instruction>(use->user());
    if (!user)
      return false;
    if (user->opcode() == Opcode::Load) {
      if (user->type() != ty)
        return false;
    } else if (user->opcode() == Opcode::Store) {
      // Must be the address operand, and the stored value must match.
      if (use->index() != 1 || user->operand(0)->type() != ty)
        return false;
    } else {
      return false;
    }
  }
  return true;
}

class Mem2Reg : public FunctionPass {
public:
  std::string name() const override { return "mem2reg"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    if (fn.isDeclaration())
      return false;
    std::vector<Instruction *> allocas;
    for (auto &inst : *fn.entry())
      if (inst->opcode() == Opcode::Alloca && isPromotable(*inst))
        allocas.push_back(inst.get());
    if (allocas.empty())
      return false;

    DominatorTree domTree(fn);
    // Dominance frontiers (quadratic walk; fine at kernel scale).
    std::map<BasicBlock *, std::set<BasicBlock *>> frontier;
    for (BasicBlock *bb : domTree.rpo()) {
      std::vector<BasicBlock *> preds = bb->predecessors();
      if (preds.size() < 2)
        continue;
      for (BasicBlock *pred : preds) {
        if (!domTree.isReachable(pred))
          continue;
        BasicBlock *runner = pred;
        while (runner && runner != domTree.idom(bb)) {
          frontier[runner].insert(bb);
          runner = domTree.idom(runner);
        }
      }
    }

    for (Instruction *alloca : allocas)
      promote(fn, *alloca, domTree, frontier);
    stats["mem2reg.promoted"] += static_cast<int64_t>(allocas.size());
    numPromoted.add(static_cast<int64_t>(allocas.size()));
    return true;
  }

  void promote(Function &fn, Instruction &alloca, DominatorTree &domTree,
               std::map<BasicBlock *, std::set<BasicBlock *>> &frontier) {
    Type *ty = alloca.allocatedType();
    LContext &ctx = fn.parentModule()->context();

    // Phi placement at iterated dominance frontiers of def (store) blocks.
    std::set<BasicBlock *> defBlocks;
    for (const Use *use : alloca.uses()) {
      auto *user = cast<Instruction>(use->user());
      if (user->opcode() == Opcode::Store)
        defBlocks.insert(user->parent());
    }
    std::set<BasicBlock *> phiBlocks;
    std::vector<BasicBlock *> work(defBlocks.begin(), defBlocks.end());
    while (!work.empty()) {
      BasicBlock *bb = work.back();
      work.pop_back();
      for (BasicBlock *df : frontier[bb])
        if (phiBlocks.insert(df).second)
          work.push_back(df);
    }

    std::map<BasicBlock *, Instruction *> placedPhis;
    IRBuilder builder(ctx);
    for (BasicBlock *bb : phiBlocks) {
      builder.setInsertPoint(bb, bb->begin());
      placedPhis[bb] = builder.createPhi(ty, alloca.name() + ".phi");
    }

    // Renaming: DFS over the dominator tree, tracking the live value.
    std::map<BasicBlock *, std::vector<BasicBlock *>> domChildren;
    for (BasicBlock *bb : domTree.rpo())
      if (BasicBlock *parent = domTree.idom(bb))
        domChildren[parent].push_back(bb);

    struct Frame {
      BasicBlock *bb;
      Value *incoming;
    };
    std::vector<Frame> stack{{fn.entry(), ctx.undef(ty)}};
    std::vector<Instruction *> toErase;
    std::set<BasicBlock *> visited;
    while (!stack.empty()) {
      auto [bb, live] = stack.back();
      stack.pop_back();
      if (!visited.insert(bb).second)
        continue;
      if (auto it = placedPhis.find(bb); it != placedPhis.end())
        live = it->second;
      for (auto &inst : *bb) {
        if (inst->opcode() == Opcode::Load && inst->operand(0) == &alloca) {
          inst->replaceAllUsesWith(live);
          toErase.push_back(inst.get());
        } else if (inst->opcode() == Opcode::Store &&
                   inst->numOperands() > 1 && inst->operand(1) == &alloca) {
          live = inst->operand(0);
          toErase.push_back(inst.get());
        }
      }
      for (BasicBlock *succ : bb->successors())
        if (auto it = placedPhis.find(succ); it != placedPhis.end())
          it->second->addIncoming(live, bb);
      for (BasicBlock *child : domChildren[bb])
        stack.push_back({child, live});
    }

    for (Instruction *inst : toErase)
      inst->eraseFromParent();
    alloca.eraseFromParent();

    // Drop phis that ended up trivial (all incomings identical or self).
    bool simplified = true;
    while (simplified) {
      simplified = false;
      for (auto &[bb, phi] : placedPhis) {
        if (!phi || !phi->parent())
          continue;
        Value *common = nullptr;
        bool trivial = true;
        for (unsigned i = 0; i < phi->numIncoming(); ++i) {
          Value *in = phi->incomingValue(i);
          if (in == phi)
            continue;
          if (common && in != common) {
            trivial = false;
            break;
          }
          common = in;
        }
        if (trivial && common && !phi->hasUses()) {
          phi->eraseFromParent();
          phi = nullptr;
          simplified = true;
        } else if (trivial && common) {
          phi->replaceAllUsesWith(common);
          phi->eraseFromParent();
          phi = nullptr;
          simplified = true;
        }
      }
    }
  }
};

} // namespace

std::unique_ptr<ModulePass> createMem2RegPass() {
  return std::make_unique<Mem2Reg>();
}

} // namespace mha::lir
