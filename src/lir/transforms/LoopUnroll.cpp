#include "lir/transforms/LoopUnroll.h"

#include "lir/Function.h"
#include "lir/LContext.h"

#include <algorithm>
#include <string>

namespace mha::lir {

int64_t clampUnrollFactor(int64_t tripCount, int64_t requested) {
  if (requested <= 1 || tripCount <= 1)
    return 1;
  if (requested >= tripCount)
    return tripCount;
  int64_t factor = requested;
  while (factor > 1 && tripCount % factor != 0)
    --factor;
  return factor;
}

bool unrollLoopByFactor(CanonicalLoop &cl, int64_t factor) {
  if (factor <= 1)
    return true;
  Loop *loop = cl.loop;
  if (!cl.tripCount || *cl.tripCount % factor != 0)
    return false;
  // Shape: header + single body/latch block.
  if (loop->blocks().size() != 2)
    return false;
  BasicBlock *latch = loop->latch();
  if (!latch || latch == loop->header())
    return false;

  Function *fn = latch->parent();
  LContext &ctx = fn->parentModule()->context();
  Instruction *iv = cl.indVar;
  IntType *ivTy = cast<IntType>(iv->type());
  if (cl.ivNext->parent() != latch)
    return false;

  // Replicate EVERY non-terminator body instruction, including the old
  // iv increment: after CSE the increment may double as an address
  // expression (e.g. j+1 in a stencil subscript), so it must be treated
  // as ordinary arithmetic, never mutated in place.
  std::vector<Instruction *> bodyInsts;
  for (auto &inst : *latch) {
    if (inst->isTerminator())
      break;
    bodyInsts.push_back(inst.get());
  }

  // An operand naming a body instruction is remapped by its position in
  // the body, read from the instruction ordinals (the body is contiguous
  // in the numbering).
  fn->numberInstructions();
  unsigned firstOrdinal = latch->front()->ordinal();
  auto bodyPosOf = [&](const Value *v) -> int {
    const auto *inst = dyn_cast<Instruction>(v);
    if (!inst || inst->parent() != latch || inst->isTerminator())
      return -1;
    return static_cast<int>(inst->ordinal() - firstOrdinal);
  };

  Instruction *term = latch->terminator();
  auto termPos = latch->positionOf(term);
  std::vector<Instruction *> copyOf(bodyInsts.size());
  std::vector<Value *> operands;
  for (int64_t k = 1; k < factor; ++k) {
    // copyOf[p]: this replica's copy of body position p, once made.
    std::fill(copyOf.begin(), copyOf.end(), nullptr);
    // iv for the k-th replica: iv + k*step.
    auto ivPlus = std::make_unique<Instruction>(Opcode::Add, ivTy);
    ivPlus->addOperand(iv);
    ivPlus->addOperand(ctx.constInt(ivTy, k * cl.step));
    ivPlus->setName(iv->name() + ".u" + std::to_string(k));
    Instruction *ivCopy = latch->insert(termPos, std::move(ivPlus));

    for (size_t p = 0; p < bodyInsts.size(); ++p) {
      operands.clear();
      for (unsigned i = 0; i < bodyInsts[p]->numOperands(); ++i) {
        Value *op = bodyInsts[p]->operand(i);
        if (op == iv)
          op = ivCopy;
        else if (int q = bodyPosOf(op); q >= 0 && copyOf[q])
          op = copyOf[q];
        operands.push_back(op);
      }
      // Copies are anonymous (clones carry no name) until the printer
      // numbers them.
      copyOf[p] = latch->insert(termPos,
                                bodyInsts[p]->cloneWithOperands(operands));
    }
  }

  // Fresh widened increment feeding the phi; the old increment (and its
  // replicas) remain plain arithmetic, dead unless subscripts use them.
  auto widened = std::make_unique<Instruction>(Opcode::Add, ivTy);
  widened->addOperand(iv);
  widened->addOperand(ctx.constInt(ivTy, factor * cl.step));
  widened->setName(iv->name() + ".next.unrolled");
  Instruction *newNext = latch->insert(termPos, std::move(widened));
  for (unsigned i = 0; i < iv->numIncoming(); ++i)
    if (iv->incomingBlock(i) == latch)
      iv->setIncomingValue(i, newNext);

  cl.ivNext = newNext;
  cl.step *= factor;
  if (cl.tripCount)
    cl.tripCount = *cl.tripCount / factor;
  return true;
}

} // namespace mha::lir
