// Inliner - bottom-up size-budgeted call-site inlining.
//
// Processing callees before callers (CallGraph SCC post-order) means every
// inlinable call inside a callee body was already resolved by the time the
// body is cloned into a caller, so one sweep per function suffices.
// Call sites left behind — external declarations, `noinline`, recursive
// callees, over-budget bodies — are counted in the pass stats and reported
// as notes so the adaptor's report explains why a call survived.
#include "lir/Function.h"
#include "lir/IRBuilder.h"
#include "lir/Instruction.h"
#include "lir/LContext.h"
#include "lir/Utils.h"
#include "lir/analysis/CallGraph.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <map>
#include <set>
#include <vector>

namespace mha::lir {

namespace {

metrics::Counter &numInlined =
    metrics::statistic("inline", "inlined", "call sites inlined");

unsigned bodySize(Function *fn) {
  unsigned size = 0;
  for (BasicBlock *bb : fn->blockPtrs())
    size += static_cast<unsigned>(bb->size());
  return size;
}

/// True if the function body touches no memory and calls only readnone
/// definitions — safe to mark `readnone` so DCE can drop unused calls.
bool computesPurely(Function *fn) {
  for (BasicBlock *bb : fn->blockPtrs()) {
    for (auto &inst : *bb) {
      switch (inst->opcode()) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::Alloca:
        return false;
      case Opcode::Call: {
        Function *callee = inst->calledFunction();
        if (!callee || callee->isDeclaration() ||
            !callee->hasAttr("readnone"))
          return false;
        break;
      }
      default:
        break;
      }
    }
  }
  return true;
}

class Inliner : public ModulePass {
public:
  explicit Inliner(InlinerOptions options) : options_(options) {}

  std::string name() const override { return "inline"; }

  bool run(Module &module, PassStats &stats,
           DiagnosticEngine &diags) override {
    CallGraph cg(module);
    bool changed = false;

    // Helpers that had call sites before inlining; candidates for erasure
    // once every use is gone. Never-called functions (top candidates and
    // unreferenced declarations) are left alone.
    std::set<Function *> everCalled;
    for (Function *fn : module.functions())
      if (!cg.callSitesOf(fn).empty())
        everCalled.insert(fn);

    for (Function *fn : cg.postOrder()) {
      std::vector<Instruction *> calls;
      for (BasicBlock *bb : fn->blockPtrs())
        for (auto &inst : *bb)
          if (inst->opcode() == Opcode::Call && inst->calledFunction())
            calls.push_back(inst.get());

      for (Instruction *call : calls) {
        Function *callee = call->calledFunction();
        if (callee->isDeclaration()) {
          stats["inline.skipped.external"]++;
          diags.note(strfmt("inline: call to external '%s' in '%s' left in "
                            "place",
                            callee->name().c_str(), fn->name().c_str()));
          continue;
        }
        if (cg.isRecursive(callee) || callee == fn) {
          stats["inline.skipped.recursive"]++;
          diags.note(strfmt("inline: recursive callee '%s' in '%s' left as "
                            "a call",
                            callee->name().c_str(), fn->name().c_str()));
          continue;
        }
        if (callee->hasAttr("noinline")) {
          stats["inline.skipped.noinline"]++;
          diags.note(strfmt("inline: 'noinline' callee '%s' in '%s' left "
                            "as a call",
                            callee->name().c_str(), fn->name().c_str()));
          continue;
        }
        unsigned size = bodySize(callee);
        if (size > options_.sizeBudget) {
          stats["inline.skipped.budget"]++;
          diags.note(strfmt("inline: callee '%s' (%u insts) exceeds budget "
                            "%u in '%s'",
                            callee->name().c_str(), size,
                            options_.sizeBudget, fn->name().c_str()));
          continue;
        }
        inlineCallSite(call, callee);
        stats["inline.count"]++;
        ++numInlined;
        changed = true;
      }
    }

    // Bodies that no longer touch memory (typically because their helpers
    // were inlined away) become `readnone`, making leftover unused calls
    // trivially dead for the cleanup DCE that follows this pass.
    for (Function *fn : cg.postOrder()) {
      if (fn->hasAttr("readnone") || !computesPurely(fn))
        continue;
      fn->attrs().insert("readnone");
      stats["inline.readnone"]++;
      changed = true;
    }

    for (Function *fn : module.functions()) {
      if (fn->isDeclaration() || !everCalled.count(fn) || fn->hasUses() ||
          fn->name() == options_.preservedFunction)
        continue;
      stats["inline.removed"]++;
      module.eraseFunction(fn);
      changed = true;
    }
    return changed;
  }

private:
  void inlineCallSite(Instruction *call, Function *callee) {
    Function *caller = call->function();
    LContext &ctx = caller->parentModule()->context();
    BasicBlock *preBB = call->parent();
    BasicBlock *contBB = splitBlockBefore(call, callee->name() + ".exit");

    std::map<Value *, Value *> valueMap;
    for (unsigned i = 0; i < callee->numArgs(); ++i)
      valueMap[callee->arg(i)] = call->arg(i);
    BasicBlock *entryClone =
        cloneBlocksInto(callee, caller, valueMap, "." + callee->name());
    preBB->terminator()->replaceSuccessor(contBB, entryClone);

    // Rewire each cloned `ret` to branch to the continuation; a value
    // return feeds the call's replacement (phi when several rets merge).
    std::vector<std::pair<Value *, BasicBlock *>> returns;
    for (BasicBlock *bb : callee->blockPtrs()) {
      Instruction *term = bb->terminator();
      if (!term || term->opcode() != Opcode::Ret)
        continue;
      auto *retClone = cast<Instruction>(valueMap.at(term));
      BasicBlock *retBB = retClone->parent();
      Value *retValue =
          retClone->numOperands() ? retClone->operand(0) : nullptr;
      retClone->eraseFromParent();
      IRBuilder builder(ctx);
      builder.setInsertPoint(retBB);
      builder.createBr(contBB);
      returns.emplace_back(retValue, retBB);
    }

    if (!call->type()->isVoid()) {
      Value *replacement = nullptr;
      if (returns.empty()) {
        // Callee never returns (infinite loop / unreachable): the
        // continuation is dead; simplify-cfg will collect it.
        replacement = ctx.undef(call->type());
      } else if (returns.size() == 1) {
        replacement = returns.front().first;
      } else {
        IRBuilder builder(ctx);
        builder.setInsertPoint(contBB, contBB->begin());
        Instruction *phi = builder.createPhi(call->type());
        for (auto &[value, bb] : returns)
          phi->addIncoming(value, bb);
        replacement = phi;
      }
      call->replaceAllUsesWith(replacement);
    }
    call->eraseFromParent();
  }

  InlinerOptions options_;
};

} // namespace

std::unique_ptr<ModulePass> createInlinerPass(InlinerOptions options) {
  return std::make_unique<Inliner>(std::move(options));
}

} // namespace mha::lir
