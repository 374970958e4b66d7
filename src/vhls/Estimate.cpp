#include "vhls/Estimate.h"

#include "lir/Function.h"
#include "lir/analysis/LoopInfo.h"

namespace mha::vhls {

std::vector<ArrayBase> collectArrayBases(const lir::Function &fn) {
  std::vector<ArrayBase> bases;
  auto add = [&](const lir::Value *value, lir::Type *type, bool onChip,
                 const lir::MDNode *md) {
    ArrayBase base;
    while (const auto *at = dyn_cast<lir::ArrayType>(type)) {
      base.dims.push_back(static_cast<int64_t>(at->numElements()));
      type = at->element();
    }
    if (base.dims.empty())
      return;
    base.value = value;
    base.elementType = type;
    base.onChip = onChip;
    // First triple wins (one partition directive per array here).
    const lir::MDNode *triple = md && md->size() > 0 ? md->getNode(0) : nullptr;
    if (triple && triple->size() >= 3) {
      base.partition.directive = true;
      base.partition.dim = static_cast<unsigned>(triple->getInt(0));
      base.partition.factor = triple->getInt(1);
      base.partition.cyclic = triple->getString(2) != "block";
    }
    bases.push_back(std::move(base));
  };

  for (const auto &arg : fn.args()) {
    lir::Type *type = arg->type();
    if (const auto *pt = dyn_cast<lir::PointerType>(type))
      type = pt->pointee();
    add(arg.get(), type, /*onChip=*/false,
        arg->getMetadata("xlx.array_partition"));
  }
  for (lir::BasicBlock *bb : fn.blockPtrs())
    for (auto &inst : *bb)
      if (inst->opcode() == lir::Opcode::Alloca)
        add(inst.get(), inst->allocatedType(), /*onChip=*/true,
            inst->getMetadata("xlx.array_partition"));
  return bases;
}

const lir::Value *dimSubscript(const lir::Instruction &memop, unsigned dim) {
  const auto *gep = dyn_cast<lir::Instruction>(
      memop.operand(memop.opcode() == lir::Opcode::Store ? 1 : 0));
  if (!gep || gep->opcode() != lir::Opcode::GEP ||
      2 + dim >= gep->numOperands())
    return nullptr;
  return gep->operand(2 + dim);
}

std::vector<lir::Loop *> reportLoopOrder(const lir::LoopInfo &loopInfo) {
  std::vector<lir::Loop *> loops;
  for (const auto &loop : loopInfo.loops())
    loops.push_back(loop.get());
  std::stable_sort(loops.begin(), loops.end(),
                   [](lir::Loop *a, lir::Loop *b) {
                     return a->depth() > b->depth();
                   });
  return loops;
}

} // namespace mha::vhls
