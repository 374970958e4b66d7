// Function.h - functions, arguments and modules.
#pragma once

#include "lir/BasicBlock.h"

#include <list>
#include <memory>
#include <set>

namespace mha::lir {

class Function;
class Module;

/// A formal parameter. Carries per-argument attributes ("noalias", ...) and
/// metadata; the adaptor uses both when flattening memref descriptors and
/// when attaching xlx.array_partition directives.
class Argument : public Value {
public:
  Argument(Type *type, Function *parent, unsigned index)
      : Value(Kind::Argument, type), parent_(parent), index_(index) {}

  Function *parent() const { return parent_; }
  unsigned index() const { return index_; }
  void setIndex(unsigned index) { index_ = index; }

  std::set<std::string> &attrs() { return attrs_; }
  const std::set<std::string> &attrs() const { return attrs_; }
  bool hasAttr(const std::string &a) const { return attrs_.count(a) > 0; }

  MDMap &metadata() { return md_; }
  const MDMap &metadata() const { return md_; }
  const MDNode *getMetadata(const std::string &key) const {
    auto it = md_.find(key);
    return it == md_.end() ? nullptr : it->second.get();
  }

  static bool classof(const Value *v) {
    return v->valueKind() == Kind::Argument;
  }

private:
  Function *parent_;
  unsigned index_;
  std::set<std::string> attrs_;
  MDMap md_;
};

class Function : public Value {
public:
  using BlockList = std::list<std::unique_ptr<BasicBlock>>;
  using iterator = BlockList::iterator;

  Function(FunctionType *type, std::string name, Module *parent);
  ~Function() override;

  Module *parentModule() const { return parent_; }
  FunctionType *functionType() const { return cast<FunctionType>(type()); }
  Type *returnType() const { return functionType()->returnType(); }

  unsigned numArgs() const { return static_cast<unsigned>(args_.size()); }
  Argument *arg(unsigned i) const { return args_[i].get(); }
  const std::vector<std::unique_ptr<Argument>> &args() const { return args_; }

  /// Rebuilds the argument list for a new signature (used by the adaptor's
  /// descriptor-flattening pass). Existing Argument objects are destroyed;
  /// callers must have rewired all uses first. Returns the new arguments.
  std::vector<Argument *> resetSignature(FunctionType *newType);

  bool isDeclaration() const { return blocks_.empty(); }

  iterator begin() { return blocks_.begin(); }
  iterator end() { return blocks_.end(); }
  size_t numBlocks() const { return blocks_.size(); }
  BasicBlock *entry() { return blocks_.front().get(); }
  const BasicBlock *entry() const { return blocks_.front().get(); }

  /// Creates a block appended at the end.
  BasicBlock *createBlock(std::string name = "");
  /// Creates a block inserted before `before`.
  BasicBlock *createBlockBefore(BasicBlock *before, std::string name = "");
  /// Unlinks and destroys `block`; its instructions are dropped.
  void eraseBlock(BasicBlock *block);
  /// Moves `block` to immediately after `after` in the layout order.
  void moveBlockAfter(BasicBlock *block, BasicBlock *after);

  std::vector<BasicBlock *> blockPtrs() const;

  std::set<std::string> &attrs() { return attrs_; }
  const std::set<std::string> &attrs() const { return attrs_; }
  bool hasAttr(const std::string &a) const { return attrs_.count(a) > 0; }

  /// Assigns names/numbers to anonymous values for stable printing.
  void renumberValues();

  /// Numbers every instruction 0, 1, 2, ... in block layout order (see
  /// Instruction::ordinal()) and returns how many there are.
  unsigned numberInstructions();

  static bool classof(const Value *v) {
    return v->valueKind() == Kind::Function;
  }

private:
  Module *parent_;
  std::vector<std::unique_ptr<Argument>> args_;
  BlockList blocks_;
  std::set<std::string> attrs_;
};

/// A translation unit: functions plus module-level flags. The
/// "opaque-pointers" flag records which pointer regime the module is in;
/// the MLIR lowering sets it, the adaptor clears it, and the virtual HLS
/// frontend rejects modules where it is still set.
class Module {
public:
  explicit Module(LContext &ctx, std::string name = "module")
      : ctx_(ctx), name_(std::move(name)) {}
  ~Module();

  LContext &context() const { return ctx_; }
  const std::string &name() const { return name_; }

  /// Creates a function (definition or declaration) owned by the module.
  Function *createFunction(FunctionType *type, std::string name);
  Function *getFunction(const std::string &name) const;
  void eraseFunction(Function *fn);

  std::vector<Function *> functions() const;

  std::map<std::string, std::string> &flags() { return flags_; }
  const std::map<std::string, std::string> &flags() const { return flags_; }
  bool flagIs(const std::string &key, const std::string &value) const {
    auto it = flags_.find(key);
    return it != flags_.end() && it->second == value;
  }

private:
  LContext &ctx_;
  std::string name_;
  std::list<std::unique_ptr<Function>> fns_;
  std::map<std::string, std::string> flags_;
};

} // namespace mha::lir
