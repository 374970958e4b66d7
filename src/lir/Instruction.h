// Instruction.h - MiniLLVM instructions.
//
// One concrete Instruction class with an opcode enum plus a small payload
// (compare predicate, alloca/GEP types, alignment, metadata). Typed helper
// accessors keep pass code readable without a per-opcode class hierarchy.
#pragma once

#include "lir/Constants.h"
#include "lir/Metadata.h"
#include "lir/Value.h"

#include <list>

namespace mha::lir {

class BasicBlock;
class Function;

enum class Opcode {
  // Memory
  Alloca,
  Load,
  Store,
  GEP,
  // Integer arithmetic / bitwise
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Floating point
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  // Comparisons
  ICmp,
  FCmp,
  // Casts
  Trunc,
  ZExt,
  SExt,
  FPTrunc,
  FPExt,
  SIToFP,
  UIToFP,
  FPToSI,
  Bitcast,
  PtrToInt,
  IntToPtr,
  // Other
  Select,
  Freeze,
  Phi,
  Call,
  // Terminators
  Ret,
  Br,
  CondBr,
  Unreachable,
};

enum class CmpPred {
  // integer
  EQ,
  NE,
  SLT,
  SLE,
  SGT,
  SGE,
  ULT,
  ULE,
  UGT,
  UGE,
  // float (ordered only; the HLS subset has no NaN-aware scheduling)
  OEQ,
  ONE,
  OLT,
  OLE,
  OGT,
  OGE,
};

const char *opcodeName(Opcode op);
const char *predName(CmpPred pred);
bool isTerminatorOpcode(Opcode op);
bool isBinaryOpcode(Opcode op);
bool isCastOpcode(Opcode op);
bool isCommutativeOpcode(Opcode op);

class Instruction : public User {
public:
  Instruction(Opcode op, Type *type) : User(Kind::Instruction, type), op_(op) {}

  Opcode opcode() const { return op_; }
  BasicBlock *parent() const { return parent_; }
  Function *function() const;

  /// Dense number of this instruction in its function's layout order, as
  /// last assigned by Function::numberInstructions(); kNoOrdinal until
  /// then. Analyses index side tables by it instead of hashing instruction
  /// pointers. It goes stale as soon as the function's instruction lists
  /// change, so a side table must be built and read with no edit between.
  static constexpr unsigned kNoOrdinal = ~0u;
  unsigned ordinal() const { return ordinal_; }

  bool isTerminator() const { return isTerminatorOpcode(op_); }
  bool isBinaryOp() const { return isBinaryOpcode(op_); }
  bool isCast() const { return isCastOpcode(op_); }
  bool isCommutative() const { return isCommutativeOpcode(op_); }

  /// True if removing the instruction (given no uses) changes program
  /// behaviour: stores, calls and terminators are not trivially dead.
  bool hasSideEffects() const {
    return op_ == Opcode::Store || op_ == Opcode::Call || isTerminator();
  }

  /// True if the instruction can be deleted: no uses, and either free of
  /// side effects or a call to a defined `readnone` callee (the inliner
  /// marks those so post-inline cleanup can drop residual calls).
  bool isTriviallyDead() const;

  // --- Payload accessors ---
  CmpPred predicate() const { return pred_; }
  void setPredicate(CmpPred pred) { pred_ = pred; }

  Type *allocatedType() const { return allocatedType_; }
  void setAllocatedType(Type *t) { allocatedType_ = t; }

  /// GEP: the element type the indices step through.
  Type *sourceElemType() const { return sourceElemType_; }
  void setSourceElemType(Type *t) { sourceElemType_ = t; }

  // --- Phi helpers (operands stored as [v0, bb0, v1, bb1, ...]) ---
  unsigned numIncoming() const { return numOperands() / 2; }
  Value *incomingValue(unsigned i) const { return operand(2 * i); }
  BasicBlock *incomingBlock(unsigned i) const;
  void addIncoming(Value *value, BasicBlock *block);
  void setIncomingValue(unsigned i, Value *v) { setOperand(2 * i, v); }
  /// Returns the incoming value for `block`, or nullptr.
  Value *incomingValueFor(const BasicBlock *block) const;
  /// Removes the incoming edge from `block` (must exist).
  void removeIncoming(const BasicBlock *block);

  // --- Call helpers (operands are [callee, args...]) ---
  Function *calledFunction() const;
  unsigned numArgs() const { return numOperands() - 1; }
  Value *arg(unsigned i) const { return operand(i + 1); }

  // --- Branch helpers ---
  BasicBlock *brDest() const;                // Br
  Value *condition() const { return operand(0); } // CondBr
  BasicBlock *trueDest() const;              // CondBr
  BasicBlock *falseDest() const;             // CondBr
  std::vector<BasicBlock *> successors() const;
  void replaceSuccessor(BasicBlock *from, BasicBlock *to);

  // --- Metadata ---
  MDMap &metadata() { return md_; }
  const MDMap &metadata() const { return md_; }
  const MDNode *getMetadata(const std::string &key) const {
    auto it = md_.find(key);
    return it == md_.end() ? nullptr : it->second.get();
  }
  void setMetadata(const std::string &key, std::unique_ptr<MDNode> node) {
    md_[key] = std::move(node);
  }
  void removeMetadata(const std::string &key) { md_.erase(key); }

  /// Deep-copies the instruction (same operand Values; caller remaps).
  /// The clone has no parent block.
  std::unique_ptr<Instruction> clone() const;
  /// Deep-copies the instruction with `operands` in place of its own (one
  /// per operand slot), so a caller that remaps builds no interim uses.
  std::unique_ptr<Instruction>
  cloneWithOperands(const std::vector<Value *> &operands) const;

  /// Unlinks from the parent block and destroys the instruction.
  void eraseFromParent();
  /// Unlinks from the parent block, returning ownership.
  std::unique_ptr<Instruction> removeFromParent();

  static bool classof(const Value *v) {
    return v->valueKind() == Kind::Instruction;
  }

private:
  friend class BasicBlock;
  friend class Function;
  Opcode op_;
  unsigned ordinal_ = kNoOrdinal;
  BasicBlock *parent_ = nullptr;
  CmpPred pred_ = CmpPred::EQ;
  Type *allocatedType_ = nullptr;
  Type *sourceElemType_ = nullptr;
  MDMap md_;
};

/// Walks back through GEPs and bitcasts to the pointer a memory access
/// addresses (an argument, an alloca or a global).
inline const Value *pointerRoot(const Value *ptr) {
  while (const auto *inst = dyn_cast<Instruction>(ptr)) {
    if (inst->opcode() != Opcode::GEP && inst->opcode() != Opcode::Bitcast)
      break;
    ptr = inst->operand(0);
  }
  return ptr;
}

} // namespace mha::lir
