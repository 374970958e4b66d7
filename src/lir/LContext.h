// LContext.h - owns and uniques MiniLLVM types and constants.
//
// Uniquing is hash-based (FNV composite keys into unordered maps with
// structural verification) and node storage is a bump-pointer arena.
// Uniquing methods are guarded by an internal mutex, so creating a type
// or constant is safe from any thread. Use-lists are not locked: a module
// and its context are mutated by one thread at a time.
#pragma once

#include "lir/Type.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace mha::lir {

class ConstantInt;
class ConstantFP;
class UndefValue;

/// Per-compilation context. All types and scalar constants live here; one
/// module per context in practice (but not enforced).
class LContext {
public:
  LContext();
  ~LContext();

  LContext(const LContext &) = delete;
  LContext &operator=(const LContext &) = delete;

  // --- Types (uniqued; pointer equality == structural equality) ---
  Type *voidTy();
  Type *labelTy();
  IntType *intTy(unsigned width);
  IntType *i1() { return intTy(1); }
  IntType *i8() { return intTy(8); }
  IntType *i32() { return intTy(32); }
  IntType *i64() { return intTy(64); }
  Type *floatTy();
  Type *doubleTy();
  PointerType *ptrTy(Type *pointee); // typed pointer
  PointerType *opaquePtrTy();        // modern opaque `ptr`
  ArrayType *arrayTy(Type *element, uint64_t count);
  StructType *structTy(std::string name, std::vector<Type *> fields);
  FunctionType *fnTy(Type *ret, std::vector<Type *> params);

  // --- Constants (uniqued) ---
  ConstantInt *constInt(IntType *type, int64_t value);
  ConstantInt *constI1(bool value);
  ConstantInt *constI32(int32_t value);
  ConstantInt *constI64(int64_t value);
  ConstantFP *constFP(Type *type, double value);
  UndefValue *undef(Type *type);

  /// When true, newly created pointer-producing IR should use opaque
  /// pointers; the MLIR lowering sets this, the adaptor clears it.
  bool emitOpaquePointers = true;

  /// Bytes currently held by the uniquing arena (telemetry/tests).
  size_t arenaBytes() const;

private:
  struct Impl;

  /// Placement-constructs a node in the arena (nodes' constructors are
  /// private with `friend class LContext`).
  template <typename T, typename... Args> T *alloc(Args &&...args);

  std::unique_ptr<Impl> impl_;
};

} // namespace mha::lir
