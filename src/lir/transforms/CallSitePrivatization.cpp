// CallSitePrivatization - clone callees whose pointer arguments bind
// distinct buffers at different call sites.
//
// Downstream, array partitioning and memory-port binding are computed per
// function argument: if two call sites pass *different* buffers through
// the same formal parameter, the two accesses are forced to share one
// port/partition decision. Cloning the callee per distinct pointer-arg
// binding keeps those decisions per-call-site, exactly as DuroHLS's pass
// of the same name does. Buffers are distinguished by the SSA identity of
// the pointer actual — in this IR pointers originate from arguments and
// allocas, so distinct values are distinct buffers.
#include "lir/Function.h"
#include "lir/Instruction.h"
#include "lir/Utils.h"
#include "lir/analysis/CallGraph.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <map>
#include <vector>

namespace mha::lir {

namespace {

metrics::Counter &numClones = metrics::statistic(
    "privatize", "clones", "callee clones created per call-site group");

class CallSitePrivatization : public ModulePass {
public:
  std::string name() const override { return "callsite-privatize"; }

  bool run(Module &module, PassStats &stats,
           DiagnosticEngine &diags) override {
    CallGraph cg(module);
    bool changed = false;
    for (Function *fn : module.functions()) {
      if (fn->isDeclaration() || cg.isRecursive(fn))
        continue;
      bool hasPointerParam = false;
      for (unsigned i = 0; i < fn->numArgs(); ++i)
        hasPointerParam |= fn->arg(i)->type()->isPointer();
      if (!hasPointerParam)
        continue;
      const std::vector<Instruction *> &sites = cg.callSitesOf(fn);
      if (sites.size() < 2)
        continue;

      // Group call sites by the tuple of pointer actuals they pass.
      std::map<std::vector<Value *>, std::vector<Instruction *>> groups;
      std::vector<std::vector<Value *>> order; // deterministic iteration
      for (Instruction *call : sites) {
        std::vector<Value *> key;
        for (unsigned i = 0; i < call->numArgs(); ++i)
          if (call->arg(i)->type()->isPointer())
            key.push_back(call->arg(i));
        if (!groups.count(key))
          order.push_back(key);
        groups[key].push_back(call);
      }
      if (order.size() < 2)
        continue;

      // The first group (in call-site order) keeps the original; each
      // further group gets a private clone.
      for (size_t g = 1; g < order.size(); ++g) {
        std::string cloneName = fn->name() + ".priv" + std::to_string(g);
        while (module.getFunction(cloneName))
          cloneName += ".p";
        Function *clone = cloneFunction(fn, cloneName);
        for (Instruction *call : groups[order[g]])
          call->setOperand(0, clone);
        stats["privatize.clones"]++;
        ++numClones;
        diags.note(strfmt("callsite-privatize: cloned '%s' as '%s' for %zu "
                          "call site(s) with a distinct buffer binding",
                          fn->name().c_str(), cloneName.c_str(),
                          groups[order[g]].size()));
        changed = true;
      }
      stats["privatize.functions"]++;
    }
    return changed;
  }
};

} // namespace

std::unique_ptr<ModulePass> createCallSitePrivatizationPass() {
  return std::make_unique<CallSitePrivatization>();
}

} // namespace mha::lir
