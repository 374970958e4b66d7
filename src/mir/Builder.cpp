#include "mir/Builder.h"

#include <cassert>

namespace mha::mir {

Operation *OpBuilder::insert(std::unique_ptr<Operation> op) {
  assert(block_ && "no insertion point");
  if (atEnd_)
    return block_->append(std::move(op));
  return block_->insert(pos_, std::move(op));
}

Operation *OpBuilder::createOp(std::string name, std::vector<Value *> operands,
                               std::vector<Type *> resultTypes) {
  return insert(Operation::create(std::move(name), std::move(operands),
                                  std::move(resultTypes)));
}

Operation *OpBuilder::insertOp(std::unique_ptr<Operation> op) {
  return insert(std::move(op));
}

OwnedModule OpBuilder::createModule() {
  auto op = Operation::create(ops::Module, {}, {});
  op->addRegion()->addBlock();
  return OwnedModule(std::move(op));
}

FuncOp OpBuilder::createFunc(const std::string &name, FunctionType *type) {
  assert(block_ && block_->parentOp() && block_->parentOp()->is(ops::Module) &&
         "functions must be created inside a module body");
  auto op = Operation::create(ops::Func, {}, {});
  op->setAttr("sym_name", ctx_.stringAttr(name));
  op->setAttr("function_type", ctx_.typeAttr(type));
  Block *entry = op->addRegion()->addBlock();
  for (Type *input : type->inputs())
    entry->addArg(input);
  return FuncOp::wrap(block_->append(std::move(op)));
}

Operation *OpBuilder::createReturn(std::vector<Value *> values) {
  return createOp(ops::Return, std::move(values), {});
}

Value *OpBuilder::constantIndex(int64_t value) {
  Operation *op = createOp(ops::ConstantOp, {}, {ctx_.indexTy()});
  op->setAttr("value", ctx_.intAttr(value));
  return op->result();
}

Value *OpBuilder::constantInt(int64_t value, Type *type) {
  Operation *op = createOp(ops::ConstantOp, {}, {type});
  op->setAttr("value", ctx_.intAttr(value));
  return op->result();
}

Value *OpBuilder::constantFloat(double value, Type *type) {
  Operation *op = createOp(ops::ConstantOp, {}, {type});
  op->setAttr("value", ctx_.floatAttr(value));
  return op->result();
}

Value *OpBuilder::binary(const char *opName, Value *lhs, Value *rhs) {
  assert(lhs->type() == rhs->type() && "binary type mismatch");
  return createOp(opName, {lhs, rhs}, {lhs->type()})->result();
}

Value *OpBuilder::indexCast(Value *v, Type *to) {
  return createOp(ops::IndexCast, {v}, {to})->result();
}

Value *OpBuilder::sitofp(Value *v, Type *to) {
  return createOp(ops::SIToFP, {v}, {to})->result();
}

Value *OpBuilder::mathOp(const char *opName, Value *v) {
  return createOp(opName, {v}, {v->type()})->result();
}

Value *OpBuilder::memrefAlloc(MemRefType *type) {
  return createOp(ops::MemRefAlloc, {}, {type})->result();
}

Value *OpBuilder::memrefLoad(Value *memref, std::vector<Value *> indices) {
  auto *mt = cast<MemRefType>(memref->type());
  assert(indices.size() == mt->rank() && "index count mismatch");
  std::vector<Value *> operands{memref};
  operands.insert(operands.end(), indices.begin(), indices.end());
  return createOp(ops::MemRefLoad, std::move(operands), {mt->elementType()})
      ->result();
}

void OpBuilder::memrefStore(Value *value, Value *memref,
                            std::vector<Value *> indices) {
  auto *mt = cast<MemRefType>(memref->type());
  assert(indices.size() == mt->rank() && "index count mismatch");
  (void)mt;
  std::vector<Value *> operands{value, memref};
  operands.insert(operands.end(), indices.begin(), indices.end());
  createOp(ops::MemRefStore, std::move(operands), {});
}

ForOp OpBuilder::affineFor(int64_t lb, int64_t ub, int64_t step) {
  Operation *op = createOp(ops::AffineFor, {}, {});
  op->setAttr("lb", ctx_.intAttr(lb));
  op->setAttr("ub", ctx_.intAttr(ub));
  op->setAttr("step", ctx_.intAttr(step));
  Block *body = op->addRegion()->addBlock();
  body->addArg(ctx_.indexTy());
  body->append(Operation::create(ops::AffineYield, {}, {}));
  return ForOp::wrap(op);
}

Value *OpBuilder::affineLoad(Value *memref, const AffineMap &map,
                             std::vector<Value *> mapOperands) {
  auto *mt = cast<MemRefType>(memref->type());
  assert(map.numResults() == mt->rank() && "map result count mismatch");
  assert(map.numDims() == mapOperands.size());
  std::vector<Value *> operands{memref};
  operands.insert(operands.end(), mapOperands.begin(), mapOperands.end());
  Operation *op =
      createOp(ops::AffineLoad, std::move(operands), {mt->elementType()});
  op->setAttr("map", ctx_.affineMapAttr(map));
  return op->result();
}

void OpBuilder::affineStore(Value *value, Value *memref, const AffineMap &map,
                            std::vector<Value *> mapOperands) {
  auto *mt = cast<MemRefType>(memref->type());
  assert(map.numResults() == mt->rank() && "map result count mismatch");
  assert(map.numDims() == mapOperands.size());
  (void)mt;
  std::vector<Value *> operands{value, memref};
  operands.insert(operands.end(), mapOperands.begin(), mapOperands.end());
  Operation *op = createOp(ops::AffineStore, std::move(operands), {});
  op->setAttr("map", ctx_.affineMapAttr(map));
}

Value *OpBuilder::affineApply(const AffineMap &map,
                              std::vector<Value *> operands) {
  assert(map.numResults() == 1 && "affine.apply yields one value");
  Operation *op =
      createOp(ops::AffineApply, std::move(operands), {ctx_.indexTy()});
  op->setAttr("map", ctx_.affineMapAttr(map));
  return op->result();
}

ForOp OpBuilder::scfFor(Value *lb, Value *ub, Value *step) {
  Operation *op = createOp(ops::ScfFor, {lb, ub, step}, {});
  Block *body = op->addRegion()->addBlock();
  body->addArg(ctx_.indexTy());
  body->append(Operation::create(ops::ScfYield, {}, {}));
  return ForOp::wrap(op);
}

void OpBuilder::setInsertPointToLoopBody(ForOp loop) {
  Block *body = loop.bodyBlock();
  assert(!body->empty() && "loop body must have a terminator");
  setInsertPoint(body, body->positionOf(body->back()));
}

} // namespace mha::mir
