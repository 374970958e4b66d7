#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/transforms/Transforms.h"
#include "support/Compiler.h"
#include "support/IntMath.h"

#include <cmath>
#include <optional>

namespace mha::lir {

namespace {

/// Evaluates an iN binop on canonical-form constants with the same
/// semantics as interp::Interpreter: wrap-around modulo 2^width, shifts
/// operating in the value's width. Returns nullopt for operations the
/// interpreter diagnoses as undefined (division by zero, sdiv/srem
/// overflow, shift amounts >= width) — those must not be folded away, or
/// the folded program would diverge from the unfolded one under
/// co-simulation.
std::optional<int64_t> evalIntBinop(Opcode op, int64_t a, int64_t b,
                                    unsigned width) {
  switch (op) {
  case Opcode::Add:
    return canonicalInt(static_cast<uint64_t>(a) + static_cast<uint64_t>(b),
                        width);
  case Opcode::Sub:
    return canonicalInt(static_cast<uint64_t>(a) - static_cast<uint64_t>(b),
                        width);
  case Opcode::Mul:
    return canonicalInt(static_cast<uint64_t>(a) * static_cast<uint64_t>(b),
                        width);
  case Opcode::SDiv:
    if (b == 0 || (a == minSignedInt(width) && b == -1))
      return std::nullopt;
    return a / b;
  case Opcode::UDiv:
    if (b == 0)
      return std::nullopt;
    return canonicalInt(truncBits(a, width) / truncBits(b, width), width);
  case Opcode::SRem:
    if (b == 0 || (a == minSignedInt(width) && b == -1))
      return std::nullopt;
    return a % b;
  case Opcode::URem:
    if (b == 0)
      return std::nullopt;
    return canonicalInt(truncBits(a, width) % truncBits(b, width), width);
  case Opcode::And:
    return a & b;
  case Opcode::Or:
    return a | b;
  case Opcode::Xor:
    return a ^ b;
  case Opcode::Shl:
    if (static_cast<uint64_t>(b) >= width)
      return std::nullopt;
    return canonicalInt(truncBits(a, width) << b, width);
  case Opcode::LShr:
    if (static_cast<uint64_t>(b) >= width)
      return std::nullopt;
    return canonicalInt(truncBits(a, width) >> b, width);
  case Opcode::AShr:
    if (static_cast<uint64_t>(b) >= width)
      return std::nullopt;
    return a >> b;
  default:
    unreachable("not an int binop");
  }
}

double evalFPBinop(Opcode op, double a, double b) {
  switch (op) {
  case Opcode::FAdd:
    return a + b;
  case Opcode::FSub:
    return a - b;
  case Opcode::FMul:
    return a * b;
  case Opcode::FDiv:
    return a / b;
  default:
    unreachable("not an fp binop");
  }
}

bool evalICmp(CmpPred pred, int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a), ub = static_cast<uint64_t>(b);
  switch (pred) {
  case CmpPred::EQ:
    return a == b;
  case CmpPred::NE:
    return a != b;
  case CmpPred::SLT:
    return a < b;
  case CmpPred::SLE:
    return a <= b;
  case CmpPred::SGT:
    return a > b;
  case CmpPred::SGE:
    return a >= b;
  case CmpPred::ULT:
    return ua < ub;
  case CmpPred::ULE:
    return ua <= ub;
  case CmpPred::UGT:
    return ua > ub;
  case CmpPred::UGE:
    return ua >= ub;
  default:
    unreachable("not an integer predicate");
  }
}

class InstCombine : public FunctionPass {
public:
  std::string name() const override { return "instcombine"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      for (BasicBlock *bb : fn.blockPtrs()) {
        for (auto &instPtr : *bb) {
          Instruction *inst = instPtr.get();
          if (Value *folded = simplify(inst)) {
            inst->replaceAllUsesWith(folded);
            stats["instcombine.simplified"]++;
            local = changed = true;
          }
        }
        if (local)
          break; // instruction list may have stale iteration state
      }
    }
    return changed;
  }

private:
  Value *simplify(Instruction *inst) {
    if (inst->hasUses() == false && !inst->hasSideEffects())
      return nullptr; // DCE's job
    // Derive the context per call: the pass keeps no per-run state.
    LContext *ctx_ = &inst->type()->context();
    Opcode op = inst->opcode();
    if (inst->isBinaryOp())
      return simplifyBinop(inst);
    switch (op) {
    case Opcode::ICmp: {
      auto *a = dyn_cast<ConstantInt>(inst->operand(0));
      auto *b = dyn_cast<ConstantInt>(inst->operand(1));
      if (a && b)
        return ctx_->constI1(evalICmp(inst->predicate(), a->value(),
                                      b->value()));
      if (inst->operand(0) == inst->operand(1)) {
        CmpPred p = inst->predicate();
        if (p == CmpPred::EQ || p == CmpPred::SLE || p == CmpPred::SGE ||
            p == CmpPred::ULE || p == CmpPred::UGE)
          return ctx_->constI1(true);
        return ctx_->constI1(false);
      }
      return nullptr;
    }
    case Opcode::Select: {
      if (auto *c = dyn_cast<ConstantInt>(inst->operand(0)))
        return c->isZero() ? inst->operand(2) : inst->operand(1);
      if (inst->operand(1) == inst->operand(2))
        return inst->operand(1);
      return nullptr;
    }
    case Opcode::SExt:
    case Opcode::ZExt:
    case Opcode::Trunc: {
      auto *c = dyn_cast<ConstantInt>(inst->operand(0));
      if (!c)
        return nullptr;
      auto *toTy = cast<IntType>(inst->type());
      int64_t v = c->value();
      if (op == Opcode::ZExt && c->width() < 64) {
        uint64_t mask = (uint64_t(1) << c->width()) - 1;
        v = static_cast<int64_t>(static_cast<uint64_t>(v) & mask);
      }
      return ctx_->constInt(toTy, v);
    }
    case Opcode::SIToFP: {
      if (auto *c = dyn_cast<ConstantInt>(inst->operand(0)))
        return ctx_->constFP(inst->type(), static_cast<double>(c->value()));
      return nullptr;
    }
    case Opcode::FPToSI: {
      if (auto *c = dyn_cast<ConstantFP>(inst->operand(0)))
        return ctx_->constInt(cast<IntType>(inst->type()),
                              static_cast<int64_t>(c->value()));
      return nullptr;
    }
    case Opcode::Bitcast:
      if (inst->operand(0)->type() == inst->type())
        return inst->operand(0);
      return nullptr;
    case Opcode::Freeze:
      // Freeze of a non-undef constant is that constant.
      if (isa<ConstantInt>(inst->operand(0)) ||
          isa<ConstantFP>(inst->operand(0)))
        return inst->operand(0);
      return nullptr;
    case Opcode::GEP:
      // No gep-of-zero folding: the HLS flow relies on explicit address
      // instructions surviving for delinearization and pointer typing.
      return nullptr;
    default:
      return nullptr;
    }
  }

  Value *simplifyBinop(Instruction *inst) {
    LContext *ctx_ = &inst->type()->context();
    Opcode op = inst->opcode();
    Value *lhs = inst->operand(0);
    Value *rhs = inst->operand(1);
    auto *lc = dyn_cast<ConstantInt>(lhs);
    auto *rc = dyn_cast<ConstantInt>(rhs);
    auto *lf = dyn_cast<ConstantFP>(lhs);
    auto *rf = dyn_cast<ConstantFP>(rhs);

    if (inst->type()->isInteger()) {
      if (lc && rc) {
        if (auto folded =
                evalIntBinop(op, lc->value(), rc->value(),
                             cast<IntType>(inst->type())->width()))
          return ctx_->constInt(cast<IntType>(inst->type()), *folded);
        return nullptr;
      }
      // Canonical identities.
      switch (op) {
      case Opcode::Add:
        if (rc && rc->isZero())
          return lhs;
        if (lc && lc->isZero())
          return rhs;
        break;
      case Opcode::Sub:
        if (rc && rc->isZero())
          return lhs;
        if (lhs == rhs)
          return ctx_->constInt(cast<IntType>(inst->type()), 0);
        break;
      case Opcode::Mul:
        if (rc && rc->isOne())
          return lhs;
        if (lc && lc->isOne())
          return rhs;
        if ((rc && rc->isZero()) || (lc && lc->isZero()))
          return ctx_->constInt(cast<IntType>(inst->type()), 0);
        break;
      case Opcode::SDiv:
      case Opcode::UDiv:
        if (rc && rc->isOne())
          return lhs;
        break;
      case Opcode::And:
        if (lhs == rhs)
          return lhs;
        if ((rc && rc->isZero()) || (lc && lc->isZero()))
          return ctx_->constInt(cast<IntType>(inst->type()), 0);
        break;
      case Opcode::Or:
        if (lhs == rhs)
          return lhs;
        if (rc && rc->isZero())
          return lhs;
        if (lc && lc->isZero())
          return rhs;
        break;
      case Opcode::Xor:
        if (lhs == rhs)
          return ctx_->constInt(cast<IntType>(inst->type()), 0);
        break;
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
        if (rc && rc->isZero())
          return lhs;
        break;
      default:
        break;
      }
      return nullptr;
    }

    // FP: fold constants only; no fast-math identities (x+0.0 is not a
    // no-op with signed zeros, and HLS QoR comparisons want bit-exactness).
    if (lf && rf)
      return ctx_->constFP(inst->type(), evalFPBinop(op, lf->value(),
                                                     rf->value()));
    return nullptr;
  }

};

} // namespace

std::unique_ptr<ModulePass> createInstCombinePass() {
  return std::make_unique<InstCombine>();
}

} // namespace mha::lir
