// Value.h - SSA values, use-def chains, and users.
//
// Every operand edge is a Use object owned by the using instruction; each
// Value keeps the list of Uses pointing at it, so replaceAllUsesWith and
// hasOneUse are O(uses). This mirrors LLVM's model closely because the
// adaptor passes rely on precise def-use rewriting.
#pragma once

#include "lir/Type.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace mha::lir {

class User;
class Use;

class Value {
public:
  enum class Kind {
    Argument,
    Instruction,
    ConstantInt,
    ConstantFP,
    Undef,
    Function,
    BasicBlock,
  };

  virtual ~Value();

  Kind valueKind() const { return kind_; }
  Type *type() const { return type_; }
  void setType(Type *type) { type_ = type; }

  const std::string &name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }
  bool hasName() const { return !name_.empty(); }

  /// All Use edges that reference this value.
  const std::vector<Use *> &uses() const { return uses_; }
  bool hasUses() const { return !uses_.empty(); }
  bool hasOneUse() const { return uses_.size() == 1; }
  size_t numUses() const { return uses_.size(); }

  /// Redirects every use of this value to `replacement`.
  void replaceAllUsesWith(Value *replacement);

  bool isConstant() const {
    return kind_ == Kind::ConstantInt || kind_ == Kind::ConstantFP ||
           kind_ == Kind::Undef;
  }

protected:
  Value(Kind kind, Type *type) : kind_(kind), type_(type) {}

private:
  friend class Use;
  Kind kind_;
  Type *type_;
  std::string name_;
  std::vector<Use *> uses_;
};

/// One operand edge: `user` operand number `index` references `value`.
class Use {
public:
  Use(User *user, unsigned index) : user_(user), index_(index) {}
  ~Use() { set(nullptr); }

  Use(const Use &) = delete;
  Use &operator=(const Use &) = delete;

  Value *get() const { return value_; }
  User *user() const { return user_; }
  unsigned index() const { return index_; }

  /// Retargets this edge, moving it between the two values' use-lists.
  void set(Value *value);

private:
  friend class User;
  Value *value_ = nullptr;
  User *user_;
  unsigned index_;
};

/// A value that references other values (instructions, mostly).
class User : public Value {
public:
  unsigned numOperands() const { return static_cast<unsigned>(ops_.size()); }

  Value *operand(unsigned i) const {
    assert(i < ops_.size());
    return ops_[i]->get();
  }

  void setOperand(unsigned i, Value *value) {
    assert(i < ops_.size());
    ops_[i]->set(value);
  }

  /// Appends a new operand slot referencing `value`.
  void addOperand(Value *value) {
    ops_.push_back(std::make_unique<Use>(this, numOperands()));
    ops_.back()->set(value);
  }

  /// Removes operand `i`, shifting later operands down.
  void removeOperand(unsigned i) {
    assert(i < ops_.size());
    ops_.erase(ops_.begin() + i);
    for (unsigned j = i; j < ops_.size(); ++j)
      ops_[j]->index_ = j;
  }

  /// Drops every operand edge (used before deletion).
  void dropAllOperands() { ops_.clear(); }

  std::vector<Value *> operandValues() const {
    std::vector<Value *> out;
    out.reserve(ops_.size());
    for (const auto &u : ops_)
      out.push_back(u->get());
    return out;
  }

  /// Replaces every operand equal to `from` with `to`.
  void replaceUsesOfWith(Value *from, Value *to) {
    for (auto &u : ops_)
      if (u->get() == from)
        u->set(to);
  }

protected:
  User(Kind kind, Type *type) : Value(kind, type) {}

  std::vector<std::unique_ptr<Use>> ops_;
};

} // namespace mha::lir
