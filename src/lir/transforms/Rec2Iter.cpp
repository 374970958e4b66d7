// Rec2Iter - rewrite direct self-recursion into an explicit-stack loop.
//
// HLS frontends cannot synthesize recursion: there is no runtime stack in
// hardware. This pass gives a directly self-recursive function a bounded,
// statically-sized stack of its own:
//
//   * every SSA value (arguments, instruction results, phis) is demoted to
//     a per-frame slot in a local `[depth x T]` array indexed by a scalar
//     stack pointer `sp` (a reg2mem over the whole body),
//   * each self-call site becomes "push a frame, record a resume state,
//     jump to the dispatch loop"; each `ret` becomes "write the result
//     slot, pop, jump to dispatch",
//   * a dispatch block reads the popped frame's resume state and branches
//     to the matching continuation; `sp < 0` exits with the final result.
//
// The depth bound comes from a `mha.rec_depth=N` function attribute when
// present (consumed by the pass), else the pass-wide default. Exceeding it
// transfers to `unreachable`, which the interpreter diagnoses and the
// scheduler costs as a dead exit. The demoted slot arrays become on-chip
// BRAM downstream, which is exactly the hardware realization of a bounded
// call stack.
#include "lir/Function.h"
#include "lir/IRBuilder.h"
#include "lir/Instruction.h"
#include "lir/LContext.h"
#include "lir/Utils.h"
#include "lir/analysis/CallGraph.h"
#include "lir/transforms/Transforms.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <vector>

namespace mha::lir {

namespace {

metrics::Counter &numRewritten = metrics::statistic(
    "rec2iter", "rewritten", "self-recursive functions rewritten");

constexpr const char *DepthAttrPrefix = "mha.rec_depth=";

class Rec2Iter : public ModulePass {
public:
  explicit Rec2Iter(unsigned defaultMaxDepth)
      : defaultMaxDepth_(defaultMaxDepth) {}

  std::string name() const override { return "rec2iter"; }

  bool run(Module &module, PassStats &stats,
           DiagnosticEngine &diags) override {
    CallGraph cg(module);
    bool changed = false;
    for (Function *fn : module.functions()) {
      if (fn->isDeclaration())
        continue;
      if (!cg.isSelfRecursive(fn)) {
        if (cg.isRecursive(fn)) {
          stats["rec2iter.skipped.mutual"]++;
          diags.note(strfmt("rec2iter: '%s' is mutually recursive; only "
                            "direct self-recursion is rewritten",
                            fn->name().c_str()));
        }
        continue;
      }
      if (!canTransform(fn)) {
        stats["rec2iter.skipped.unsupported"]++;
        diags.note(strfmt("rec2iter: '%s' uses allocas or returns a "
                          "pointer; left recursive",
                          fn->name().c_str()));
        continue;
      }
      transform(fn, depthBound(fn));
      stats["rec2iter.rewritten"]++;
      ++numRewritten;
      changed = true;
    }
    return changed;
  }

private:
  unsigned depthBound(Function *fn) const {
    unsigned depth = defaultMaxDepth_;
    for (auto it = fn->attrs().begin(); it != fn->attrs().end();) {
      if (it->rfind(DepthAttrPrefix, 0) == 0) {
        long parsed = std::strtol(it->c_str() + std::strlen(DepthAttrPrefix),
                                  nullptr, 10);
        if (parsed > 0)
          depth = static_cast<unsigned>(parsed);
        it = fn->attrs().erase(it);
      } else {
        ++it;
      }
    }
    return depth;
  }

  static bool canTransform(Function *fn) {
    if (fn->returnType()->isPointer())
      return false;
    for (BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        if (inst->opcode() == Opcode::Alloca)
          return false;
    return true;
  }

  void transform(Function *fn, unsigned depth) {
    Module *module = fn->parentModule();
    LContext &ctx = module->context();
    IRBuilder b(ctx);
    IntType *i64 = ctx.i64();
    IntType *i32 = ctx.i32();

    // --- 1. Isolate each self-call in its own [call, br resume] block so
    // pushing a frame can replace the whole block tail.
    std::vector<Instruction *> selfCalls;
    for (BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        if (inst->opcode() == Opcode::Call &&
            inst->calledFunction() == fn)
          selfCalls.push_back(inst.get());
    std::vector<BasicBlock *> resumeTargets;
    for (Instruction *call : selfCalls) {
      splitBlockBefore(call, "push");
      auto next = std::next(call->parent()->positionOf(call));
      resumeTargets.push_back(splitBlockBefore(next->get(), "resume"));
    }

    std::vector<BasicBlock *> bodyBlocks = fn->blockPtrs();
    BasicBlock *bodyEntry = fn->entry();

    // --- 2. Frame slots: one [depth x T] array per demoted value.
    BasicBlock *prologue = fn->createBlockBefore(bodyEntry, "rec.prologue");
    b.setInsertPoint(prologue);
    // value -> its slot alloca, plus the values in creation order
    // (arguments by index, then instructions in program order) so the
    // rewrite below never depends on heap addresses.
    std::map<Value *, Instruction *> slots;
    std::vector<Value *> slotOrder;
    auto makeSlot = [&](Value *v, const std::string &name) {
      slots[v] = b.createAlloca(ctx.arrayTy(v->type(), depth), name);
      slotOrder.push_back(v);
    };
    for (unsigned i = 0; i < fn->numArgs(); ++i)
      makeSlot(fn->arg(i), "rec.arg" + std::to_string(i));
    std::vector<Instruction *> demoted;
    std::set<Instruction *> selfCallSet(selfCalls.begin(), selfCalls.end());
    for (BasicBlock *bb : bodyBlocks)
      for (auto &inst : *bb)
        if (!inst->type()->isVoid()) {
          makeSlot(inst.get(), "rec.v");
          demoted.push_back(inst.get());
        }
    Instruction *spSlot = b.createAlloca(i64, "rec.sp");
    Instruction *resumeSlot =
        b.createAlloca(ctx.arrayTy(i32, depth), "rec.state");
    Instruction *retSlot = fn->returnType()->isVoid()
                               ? nullptr
                               : b.createAlloca(fn->returnType(), "rec.ret");

    // Emits `&slot[load sp (+ adjust)]` at the current insert point.
    auto slotAddr = [&](Instruction *slot, int64_t adjust) -> Value * {
      Value *sp = b.createLoad(i64, spSlot, "sp");
      if (adjust)
        sp = b.createBinOp(Opcode::Add, sp, ctx.constI64(adjust));
      return b.createGEP(slot->allocatedType(), slot,
                         {ctx.constI64(0), sp});
    };

    // --- 3. Phi elimination: incoming values become stores to the phi's
    // slot at the tail of each predecessor. The phis themselves die after
    // use-rewriting (their remaining operand uses are ignored below). The
    // stored operand is rewritten to a slot load like any other use in
    // step 5 — the incoming value's definition may stop dominating the
    // predecessor once call sites are rewired through the dispatch loop.
    std::vector<Instruction *> phis;
    for (BasicBlock *bb : bodyBlocks)
      for (Instruction *phi : bb->phis())
        phis.push_back(phi);
    for (Instruction *phi : phis) {
      for (unsigned i = 0; i < phi->numIncoming(); ++i) {
        BasicBlock *pred = phi->incomingBlock(i);
        b.setInsertPointBefore(pred->terminator());
        b.createStore(phi->incomingValue(i), slotAddr(slots.at(phi), 0));
      }
    }

    // --- 4. Def-stores: every non-phi demoted value is written to its
    // slot right where it is defined. Self-calls are skipped — their slot
    // is written by the resume block when the child frame returns.
    std::map<const Value *, Instruction *> defStoreOf;
    for (Instruction *inst : demoted) {
      if (inst->opcode() == Opcode::Phi || selfCallSet.count(inst))
        continue;
      BasicBlock *bb = inst->parent();
      b.setInsertPoint(bb, std::next(bb->positionOf(inst)));
      defStoreOf[inst] =
          b.createStore(inst, slotAddr(slots.at(inst), 0));
    }

    // --- 5. Use-rewriting: every remaining use of a demoted value loads
    // its slot just before the user. A value's own def-store keeps the
    // direct operand (that is the one live register); phi operands are
    // left alone (the phis are erased next).
    for (Value *value : slotOrder) {
      Instruction *slot = slots.at(value);
      std::vector<Use *> uses(value->uses().begin(), value->uses().end());
      for (Use *use : uses) {
        auto *user = dyn_cast<Instruction>(use->user());
        if (!user || user->opcode() == Opcode::Phi)
          continue;
        auto defStore = defStoreOf.find(value);
        if (defStore != defStoreOf.end() && user == defStore->second &&
            use->index() == 0)
          continue;
        b.setInsertPointBefore(user);
        Value *load =
            b.createLoad(value->type(), slotAddr(slot, 0), "rec.use");
        use->set(load);
      }
    }
    for (Instruction *phi : phis)
      phi->eraseFromParent();

    // --- 6. Control skeleton.
    BasicBlock *dispatch = fn->createBlock("rec.dispatch");
    BasicBlock *exitBB = fn->createBlock("rec.exit");
    BasicBlock *overflowBB = fn->createBlock("rec.overflow");
    b.setInsertPoint(overflowBB);
    b.createUnreachable();
    b.setInsertPoint(exitBB);
    if (retSlot)
      b.createRet(b.createLoad(fn->returnType(), retSlot, "rec.result"));
    else
      b.createRet();

    // Dispatch: pop-or-continue. sp < 0 means the root frame returned.
    b.setInsertPoint(dispatch);
    Value *sp = b.createLoad(i64, spSlot, "sp");
    Value *done = b.createICmp(CmpPred::SLT, sp, ctx.constI64(0), "done");
    BasicBlock *stateBB = fn->createBlock("rec.state0");
    b.createCondBr(done, exitBB, stateBB);
    b.setInsertPoint(stateBB);
    Value *state = b.createLoad(i32, slotAddr(resumeSlot, 0), "state");
    // state == k resumes call site k (1-based); state 0 is a fresh frame.
    for (unsigned k = 0; k < resumeTargets.size(); ++k) {
      BasicBlock *resumeK = fn->createBlock("rec.resume" +
                                            std::to_string(k + 1));
      b.setInsertPoint(resumeK);
      Instruction *call = selfCalls[k];
      if (!call->type()->isVoid()) {
        Value *rv = b.createLoad(fn->returnType(), retSlot, "rec.child");
        b.createStore(rv, slotAddr(slots.at(call), 0));
      }
      b.createBr(resumeTargets[k]);

      b.setInsertPoint(stateBB);
      Value *isK = b.createICmp(CmpPred::EQ, state,
                                ctx.constInt(i32, int64_t(k) + 1), "is.k");
      BasicBlock *nextCheck =
          k + 1 == resumeTargets.size()
              ? bodyEntry
              : fn->createBlock("rec.state" + std::to_string(k + 1));
      b.createCondBr(isK, resumeK, nextCheck);
      if (nextCheck != bodyEntry)
        stateBB = nextCheck;
    }
    if (resumeTargets.empty()) {
      b.setInsertPoint(stateBB);
      b.createBr(bodyEntry);
    }

    // --- 7. Push blocks: replace each [call, br resume] tail with a
    // depth-checked frame push that jumps back to dispatch.
    for (unsigned k = 0; k < selfCalls.size(); ++k) {
      Instruction *call = selfCalls[k];
      BasicBlock *pushBB = call->parent();
      pushBB->terminator()->eraseFromParent();
      std::vector<Value *> callArgs;
      for (unsigned i = 0; i < call->numArgs(); ++i)
        callArgs.push_back(call->arg(i));
      call->eraseFromParent();

      b.setInsertPoint(pushBB);
      Value *cur = b.createLoad(i64, spSlot, "sp");
      Value *next = b.createBinOp(Opcode::Add, cur, ctx.constI64(1), "sp1");
      Value *over = b.createICmp(CmpPred::SGE, next,
                                 ctx.constI64(int64_t(depth)), "over");
      BasicBlock *doPush = fn->createBlock("rec.dopush" +
                                           std::to_string(k + 1));
      b.createCondBr(over, overflowBB, doPush);

      b.setInsertPoint(doPush);
      b.createStore(ctx.constInt(i32, int64_t(k) + 1),
                    slotAddr(resumeSlot, 0));
      for (unsigned i = 0; i < callArgs.size(); ++i)
        b.createStore(callArgs[i], slotAddr(slots.at(fn->arg(i)), 1));
      b.createStore(ctx.constI32(0), slotAddr(resumeSlot, 1));
      Value *bumped = b.createLoad(i64, spSlot, "sp");
      b.createStore(b.createBinOp(Opcode::Add, bumped, ctx.constI64(1)),
                    spSlot);
      b.createBr(dispatch);
    }

    // --- 8. Returns: write the result slot, pop, re-enter dispatch.
    for (BasicBlock *bb : bodyBlocks) {
      Instruction *term = bb->terminator();
      if (!term || term->opcode() != Opcode::Ret)
        continue;
      Value *retValue = term->numOperands() ? term->operand(0) : nullptr;
      term->eraseFromParent();
      b.setInsertPoint(bb);
      if (retSlot && retValue)
        b.createStore(retValue, retSlot);
      Value *cur = b.createLoad(i64, spSlot, "sp");
      b.createStore(b.createBinOp(Opcode::Sub, cur, ctx.constI64(1)),
                    spSlot);
      b.createBr(dispatch);
    }

    // --- 9. Prologue: root frame at sp=0 with the real arguments.
    b.setInsertPoint(prologue);
    b.createStore(ctx.constI64(0), spSlot);
    for (unsigned i = 0; i < fn->numArgs(); ++i)
      b.createStore(fn->arg(i), slotAddr(slots.at(fn->arg(i)), 0));
    b.createStore(ctx.constI32(0), slotAddr(resumeSlot, 0));
    b.createBr(dispatch);

    fn->attrs().insert("norecurse");
    fn->renumberValues();
  }

  unsigned defaultMaxDepth_;
};

} // namespace

std::unique_ptr<ModulePass> createRec2IterPass(unsigned defaultMaxDepth) {
  return std::make_unique<Rec2Iter>(defaultMaxDepth);
}

} // namespace mha::lir
