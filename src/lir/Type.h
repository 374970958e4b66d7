// Type.h - the MiniLLVM type system.
//
// Types are immutable and uniqued inside an LContext: two structurally equal
// types are the same pointer, so type equality is pointer equality. The set
// mirrors the LLVM subset an HLS frontend deals with: void, iN, float/double,
// pointers (typed *and* opaque, to model the version gap the adaptor
// bridges), arrays, named/literal structs, and function types.
#pragma once

#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mha::lir {

class LContext;

class Type {
public:
  enum class Kind {
    Void,
    Integer,
    Float,   // f32
    Double,  // f64
    Pointer,
    Array,
    Struct,
    Function,
    Label, // type of basic blocks when used as branch targets
  };

  Kind kind() const { return kind_; }
  LContext &context() const { return ctx_; }

  bool isVoid() const { return kind_ == Kind::Void; }
  bool isInteger() const { return kind_ == Kind::Integer; }
  bool isFloatingPoint() const {
    return kind_ == Kind::Float || kind_ == Kind::Double;
  }
  bool isPointer() const { return kind_ == Kind::Pointer; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isStruct() const { return kind_ == Kind::Struct; }
  bool isFunction() const { return kind_ == Kind::Function; }
  bool isLabel() const { return kind_ == Kind::Label; }

  /// True for types a scalar SSA value can have.
  bool isFirstClass() const {
    return isInteger() || isFloatingPoint() || isPointer();
  }

  /// Size in bytes when laid out in memory (pointers count as 8).
  uint64_t sizeInBytes() const;

  /// Renders the type in .ll syntax (e.g. "i32", "ptr", "[4 x double]").
  std::string str() const;

protected:
  Type(LContext &ctx, Kind kind) : ctx_(ctx), kind_(kind) {}
  ~Type() = default;

private:
  LContext &ctx_;
  Kind kind_;
};

/// Arbitrary-width (1..64) integer type.
class IntType : public Type {
public:
  unsigned width() const { return width_; }

  static bool classof(const Type *t) { return t->kind() == Kind::Integer; }

private:
  friend class LContext;
  IntType(LContext &ctx, unsigned width)
      : Type(ctx, Kind::Integer), width_(width) {}
  unsigned width_;
};

/// A pointer. `pointee() == nullptr` means the pointer is *opaque* — the
/// modern LLVM form that legacy HLS frontends reject; the adaptor's
/// PointerTypeRecovery pass rewrites opaque pointers into typed ones.
class PointerType : public Type {
public:
  Type *pointee() const { return pointee_; }
  bool isOpaque() const { return pointee_ == nullptr; }

  static bool classof(const Type *t) { return t->kind() == Kind::Pointer; }

private:
  friend class LContext;
  PointerType(LContext &ctx, Type *pointee)
      : Type(ctx, Kind::Pointer), pointee_(pointee) {}
  Type *pointee_;
};

class ArrayType : public Type {
public:
  Type *element() const { return element_; }
  uint64_t numElements() const { return count_; }

  static bool classof(const Type *t) { return t->kind() == Kind::Array; }

private:
  friend class LContext;
  ArrayType(LContext &ctx, Type *element, uint64_t count)
      : Type(ctx, Kind::Array), element_(element), count_(count) {}
  Type *element_;
  uint64_t count_;
};

/// A literal struct; used for memref descriptors in the MLIR-lowered IR.
class StructType : public Type {
public:
  const std::vector<Type *> &fields() const { return fields_; }
  const std::string &name() const { return name_; }

  static bool classof(const Type *t) { return t->kind() == Kind::Struct; }

private:
  friend class LContext;
  StructType(LContext &ctx, std::string name, std::vector<Type *> fields)
      : Type(ctx, Kind::Struct), name_(std::move(name)),
        fields_(std::move(fields)) {}
  std::string name_;
  std::vector<Type *> fields_;
};

class FunctionType : public Type {
public:
  Type *returnType() const { return ret_; }
  const std::vector<Type *> &paramTypes() const { return params_; }

  static bool classof(const Type *t) { return t->kind() == Kind::Function; }

private:
  friend class LContext;
  FunctionType(LContext &ctx, Type *ret, std::vector<Type *> params)
      : Type(ctx, Kind::Function), ret_(ret), params_(std::move(params)) {}
  Type *ret_;
  std::vector<Type *> params_;
};

/// The array dimensions of an array type or of a typed pointer to one,
/// outermost first (empty for anything else).
inline std::vector<int64_t> arrayDims(const Type *type) {
  std::vector<int64_t> dims;
  if (const auto *pt = dyn_cast<PointerType>(type))
    type = pt->pointee();
  while (type && type->isArray()) {
    const auto *at = cast<ArrayType>(type);
    dims.push_back(static_cast<int64_t>(at->numElements()));
    type = at->element();
  }
  return dims;
}

} // namespace mha::lir
