#include "lir/Function.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"

namespace mha::lir {

namespace {

metrics::Counter &numRemoved =
    metrics::statistic("dce", "removed", "dead instructions removed");

class DCE : public FunctionPass {
public:
  std::string name() const override { return "dce"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      for (BasicBlock *bb : fn.blockPtrs()) {
        std::vector<Instruction *> dead;
        for (auto &inst : *bb)
          if (inst->isTriviallyDead())
            dead.push_back(inst.get());
        for (Instruction *inst : dead) {
          inst->eraseFromParent();
          stats["dce.removed"]++;
          ++numRemoved;
          local = changed = true;
        }
      }
    }
    return changed;
  }
};

} // namespace

std::unique_ptr<ModulePass> createDCEPass() { return std::make_unique<DCE>(); }

} // namespace mha::lir
