#include "lir/Instruction.h"

#include "lir/BasicBlock.h"
#include "lir/Function.h"
#include "support/Compiler.h"

namespace mha::lir {

const char *opcodeName(Opcode op) {
  switch (op) {
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::GEP:
    return "getelementptr";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::URem:
    return "urem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FNeg:
    return "fneg";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::FPTrunc:
    return "fptrunc";
  case Opcode::FPExt:
    return "fpext";
  case Opcode::SIToFP:
    return "sitofp";
  case Opcode::UIToFP:
    return "uitofp";
  case Opcode::FPToSI:
    return "fptosi";
  case Opcode::Bitcast:
    return "bitcast";
  case Opcode::PtrToInt:
    return "ptrtoint";
  case Opcode::IntToPtr:
    return "inttoptr";
  case Opcode::Select:
    return "select";
  case Opcode::Freeze:
    return "freeze";
  case Opcode::Phi:
    return "phi";
  case Opcode::Call:
    return "call";
  case Opcode::Ret:
    return "ret";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "br";
  case Opcode::Unreachable:
    return "unreachable";
  }
  unreachable("bad opcode");
}

const char *predName(CmpPred pred) {
  switch (pred) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::SLT:
    return "slt";
  case CmpPred::SLE:
    return "sle";
  case CmpPred::SGT:
    return "sgt";
  case CmpPred::SGE:
    return "sge";
  case CmpPred::ULT:
    return "ult";
  case CmpPred::ULE:
    return "ule";
  case CmpPred::UGT:
    return "ugt";
  case CmpPred::UGE:
    return "uge";
  case CmpPred::OEQ:
    return "oeq";
  case CmpPred::ONE:
    return "one";
  case CmpPred::OLT:
    return "olt";
  case CmpPred::OLE:
    return "ole";
  case CmpPred::OGT:
    return "ogt";
  case CmpPred::OGE:
    return "oge";
  }
  unreachable("bad predicate");
}

bool isTerminatorOpcode(Opcode op) {
  return op == Opcode::Ret || op == Opcode::Br || op == Opcode::CondBr ||
         op == Opcode::Unreachable;
}

bool isBinaryOpcode(Opcode op) {
  switch (op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    return true;
  default:
    return false;
  }
}

bool isCastOpcode(Opcode op) {
  switch (op) {
  case Opcode::Trunc:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::FPTrunc:
  case Opcode::FPExt:
  case Opcode::SIToFP:
  case Opcode::UIToFP:
  case Opcode::FPToSI:
  case Opcode::Bitcast:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    return true;
  default:
    return false;
  }
}

bool isCommutativeOpcode(Opcode op) {
  switch (op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::FAdd:
  case Opcode::FMul:
    return true;
  default:
    return false;
  }
}

Function *Instruction::function() const {
  return parent_ ? parent_->parent() : nullptr;
}

BasicBlock *Instruction::incomingBlock(unsigned i) const {
  return cast<BasicBlock>(operand(2 * i + 1));
}

void Instruction::addIncoming(Value *value, BasicBlock *block) {
  assert(op_ == Opcode::Phi);
  addOperand(value);
  addOperand(block);
}

Value *Instruction::incomingValueFor(const BasicBlock *block) const {
  for (unsigned i = 0, e = numIncoming(); i != e; ++i)
    if (incomingBlock(i) == block)
      return incomingValue(i);
  return nullptr;
}

void Instruction::removeIncoming(const BasicBlock *block) {
  for (unsigned i = 0, e = numIncoming(); i != e; ++i) {
    if (incomingBlock(i) == block) {
      removeOperand(2 * i + 1);
      removeOperand(2 * i);
      return;
    }
  }
  assert(false && "removeIncoming: block not found");
}

Function *Instruction::calledFunction() const {
  assert(op_ == Opcode::Call);
  return dyn_cast<Function>(operand(0));
}

bool Instruction::isTriviallyDead() const {
  if (hasUses())
    return false;
  if (!hasSideEffects())
    return true;
  if (op_ != Opcode::Call)
    return false;
  Function *callee = calledFunction();
  return callee && !callee->isDeclaration() && callee->hasAttr("readnone");
}

BasicBlock *Instruction::brDest() const {
  assert(op_ == Opcode::Br);
  return cast<BasicBlock>(operand(0));
}

BasicBlock *Instruction::trueDest() const {
  assert(op_ == Opcode::CondBr);
  return cast<BasicBlock>(operand(1));
}

BasicBlock *Instruction::falseDest() const {
  assert(op_ == Opcode::CondBr);
  return cast<BasicBlock>(operand(2));
}

std::vector<BasicBlock *> Instruction::successors() const {
  switch (op_) {
  case Opcode::Br:
    return {brDest()};
  case Opcode::CondBr:
    return {trueDest(), falseDest()};
  default:
    return {};
  }
}

void Instruction::replaceSuccessor(BasicBlock *from, BasicBlock *to) {
  replaceUsesOfWith(from, to);
}

std::unique_ptr<Instruction> Instruction::clone() const {
  return cloneWithOperands(operandValues());
}

std::unique_ptr<Instruction>
Instruction::cloneWithOperands(const std::vector<Value *> &operands) const {
  assert(operands.size() == numOperands() && "one operand per slot");
  auto copy = std::make_unique<Instruction>(op_, type());
  copy->pred_ = pred_;
  copy->allocatedType_ = allocatedType_;
  copy->sourceElemType_ = sourceElemType_;
  copy->ops_.reserve(operands.size());
  for (Value *operand : operands)
    copy->addOperand(operand);
  for (const auto &[key, node] : md_)
    copy->md_[key] = node->clone();
  return copy;
}

void Instruction::eraseFromParent() {
  assert(parent_ && "instruction has no parent");
  BasicBlock *bb = parent_;
  for (auto it = bb->insts_.begin(); it != bb->insts_.end(); ++it) {
    if (it->get() == this) {
      (*it)->dropAllOperands();
      bb->insts_.erase(it);
      return;
    }
  }
  assert(false && "instruction not found in parent block");
}

std::unique_ptr<Instruction> Instruction::removeFromParent() {
  assert(parent_ && "instruction has no parent");
  BasicBlock *bb = parent_;
  for (auto it = bb->insts_.begin(); it != bb->insts_.end(); ++it) {
    if (it->get() == this) {
      std::unique_ptr<Instruction> owned = std::move(*it);
      bb->insts_.erase(it);
      owned->parent_ = nullptr;
      return owned;
    }
  }
  unreachable("instruction not found in parent block");
}

} // namespace mha::lir
