#include "lir/Function.h"

#include "lir/LContext.h"
#include "support/StringUtils.h"

#include <cassert>
#include <set>

namespace mha::lir {

Function::Function(FunctionType *type, std::string name, Module *parent)
    : Value(Kind::Function, type), parent_(parent) {
  setName(std::move(name));
  const auto &params = type->paramTypes();
  args_.reserve(params.size());
  for (unsigned i = 0; i < params.size(); ++i)
    args_.push_back(std::make_unique<Argument>(params[i], this, i));
}

Function::~Function() {
  // Sever every operand edge before member destruction so no Value dies
  // while still referenced (instructions can use values in other blocks,
  // branch targets, arguments, ...).
  for (auto &bb : blocks_)
    for (auto &inst : *bb)
      inst->dropAllOperands();
}

std::vector<Argument *> Function::resetSignature(FunctionType *newType) {
  for ([[maybe_unused]] auto &arg : args_)
    assert(!arg->hasUses() && "old argument still has uses");
  setType(newType);
  args_.clear();
  const auto &params = newType->paramTypes();
  std::vector<Argument *> out;
  for (unsigned i = 0; i < params.size(); ++i) {
    args_.push_back(std::make_unique<Argument>(params[i], this, i));
    out.push_back(args_.back().get());
  }
  return out;
}

BasicBlock *Function::createBlock(std::string name) {
  auto bb = std::make_unique<BasicBlock>(
      parent_->context().labelTy(), std::move(name));
  bb->parent_ = this;
  blocks_.push_back(std::move(bb));
  return blocks_.back().get();
}

BasicBlock *Function::createBlockBefore(BasicBlock *before, std::string name) {
  auto bb = std::make_unique<BasicBlock>(
      parent_->context().labelTy(), std::move(name));
  bb->parent_ = this;
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == before)
      return blocks_.insert(it, std::move(bb))->get();
  }
  blocks_.push_back(std::move(bb));
  return blocks_.back().get();
}

void Function::eraseBlock(BasicBlock *block) {
  // Drop operand edges first so value destructors see no dangling uses.
  for (auto &inst : *block)
    inst->dropAllOperands();
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == block) {
      blocks_.erase(it);
      return;
    }
  }
  assert(false && "block not in function");
}

void Function::moveBlockAfter(BasicBlock *block, BasicBlock *after) {
  std::unique_ptr<BasicBlock> owned;
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == block) {
      owned = std::move(*it);
      blocks_.erase(it);
      break;
    }
  }
  assert(owned && "block not in function");
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == after) {
      blocks_.insert(std::next(it), std::move(owned));
      return;
    }
  }
  assert(false && "anchor block not in function");
}

std::vector<BasicBlock *> Function::blockPtrs() const {
  std::vector<BasicBlock *> out;
  out.reserve(blocks_.size());
  for (const auto &bb : blocks_)
    out.push_back(bb.get());
  return out;
}

unsigned Function::numberInstructions() {
  unsigned next = 0;
  for (const auto &bb : blocks_)
    for (auto &inst : *bb)
      inst->ordinal_ = next++;
  return next;
}

void Function::renumberValues() {
  // Printed text binds references by name, so every name must be unique
  // within the function: passes are free to reuse a fixed name (e.g. one
  // "idx.scaled" per subscript), and a duplicate would make later uses
  // rebind to the wrong definition when the output is parsed back.
  std::set<std::string> taken;
  auto claim = [&taken](const std::string &name) {
    if (taken.insert(name).second)
      return name;
    for (unsigned n = 1;; ++n) {
      std::string candidate = strfmt("%s.%u", name.c_str(), n);
      if (taken.insert(candidate).second)
        return candidate;
    }
  };
  unsigned next = 0;
  for (auto &arg : args_)
    if (arg->hasName())
      arg->setName(claim(arg->name()));
    else
      arg->setName(claim(strfmt("%u", next++)));
  unsigned bbNum = 0;
  std::set<std::string> takenBlocks;
  auto claimBlock = [&takenBlocks](const std::string &name) {
    if (takenBlocks.insert(name).second)
      return name;
    for (unsigned n = 1;; ++n) {
      std::string candidate = strfmt("%s.%u", name.c_str(), n);
      if (takenBlocks.insert(candidate).second)
        return candidate;
    }
  };
  for (auto &bb : blocks_) {
    if (bb->hasName())
      bb->setName(claimBlock(bb->name()));
    else
      bb->setName(claimBlock(strfmt("bb%u", bbNum)));
    ++bbNum;
    for (auto &inst : *bb)
      if (!inst->type()->isVoid()) {
        if (inst->hasName())
          inst->setName(claim(inst->name()));
        else
          inst->setName(claim(strfmt("%u", next++)));
      }
  }
}

Module::~Module() {
  // Calls reference callee Functions across the function list; sever every
  // edge up front so destruction order does not matter.
  for (auto &fn : fns_)
    for (BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        inst->dropAllOperands();
}

Function *Module::createFunction(FunctionType *type, std::string name) {
  fns_.push_back(std::make_unique<Function>(type, std::move(name), this));
  return fns_.back().get();
}

Function *Module::getFunction(const std::string &name) const {
  for (const auto &fn : fns_)
    if (fn->name() == name)
      return fn.get();
  return nullptr;
}

void Module::eraseFunction(Function *fn) {
  for (auto it = fns_.begin(); it != fns_.end(); ++it) {
    if (it->get() == fn) {
      // Drop all block/instruction edges before destruction.
      for (BasicBlock *bb : fn->blockPtrs())
        for (auto &inst : *bb)
          inst->dropAllOperands();
      fns_.erase(it);
      return;
    }
  }
  assert(false && "function not in module");
}

std::vector<Function *> Module::functions() const {
  std::vector<Function *> out;
  out.reserve(fns_.size());
  for (const auto &fn : fns_)
    out.push_back(fn.get());
  return out;
}

} // namespace mha::lir
