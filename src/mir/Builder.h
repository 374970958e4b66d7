// Builder.h - OpBuilder: convenience factory for MiniMLIR operations.
#pragma once

#include "mir/MContext.h"
#include "mir/Ops.h"

namespace mha::mir {

class OpBuilder {
public:
  explicit OpBuilder(MContext &ctx) : ctx_(ctx) {}

  MContext &context() const { return ctx_; }

  void setInsertPoint(Block *block) {
    block_ = block;
    atEnd_ = true;
  }
  void setInsertPoint(Block *block, Block::iterator pos) {
    block_ = block;
    pos_ = pos;
    atEnd_ = false;
  }
  void setInsertPointBefore(Operation *op) {
    block_ = op->parentBlock();
    pos_ = block_->positionOf(op);
    atEnd_ = false;
  }
  Block *insertBlock() const { return block_; }

  /// Generic op creation at the insertion point.
  Operation *createOp(std::string name, std::vector<Value *> operands,
                      std::vector<Type *> resultTypes);

  /// Inserts an already-built op at the insertion point.
  Operation *insertOp(std::unique_ptr<Operation> op);

  // --- builtin / func ---
  /// Creates a detached module op (caller owns it).
  static OwnedModule createModule();
  /// Creates func.func inside the current module block; entry block args
  /// mirror the input types. Leaves the insertion point unchanged.
  FuncOp createFunc(const std::string &name, FunctionType *type);
  Operation *createReturn(std::vector<Value *> values = {});

  // --- arith ---
  Value *constantIndex(int64_t value);
  Value *constantInt(int64_t value, Type *type);
  Value *constantFloat(double value, Type *type);
  Value *binary(const char *opName, Value *lhs, Value *rhs);
  Value *indexCast(Value *v, Type *to);
  Value *sitofp(Value *v, Type *to);
  Value *mathOp(const char *opName, Value *v);

  // --- memref ---
  Value *memrefAlloc(MemRefType *type);
  Value *memrefLoad(Value *memref, std::vector<Value *> indices);
  void memrefStore(Value *value, Value *memref, std::vector<Value *> indices);

  // --- affine ---
  /// Creates affine.for lb..ub step `step`; returns the loop. The body has
  /// the index argument and an affine.yield terminator; the caller should
  /// set the insertion point inside via `bodyInsertPoint(loop)`.
  ForOp affineFor(int64_t lb, int64_t ub, int64_t step = 1);
  Value *affineLoad(Value *memref, const AffineMap &map,
                    std::vector<Value *> mapOperands);
  void affineStore(Value *value, Value *memref, const AffineMap &map,
                   std::vector<Value *> mapOperands);
  Value *affineApply(const AffineMap &map, std::vector<Value *> operands);

  // --- scf ---
  ForOp scfFor(Value *lb, Value *ub, Value *step);

  /// Positions the builder before the loop body's terminator.
  void setInsertPointToLoopBody(ForOp loop);

private:
  Operation *insert(std::unique_ptr<Operation> op);

  MContext &ctx_;
  Block *block_ = nullptr;
  Block::iterator pos_;
  bool atEnd_ = true;
};

} // namespace mha::mir
