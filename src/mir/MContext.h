// MContext.h - owns and uniques MiniMLIR types, attributes, affine exprs.
//
// Uniquing is hash-based (FNV composite keys into unordered maps, with
// structural verification on bucket hits) and node storage is a
// bump-pointer arena: a context allocates slabs, hands out interned
// pointers, and frees everything at once on destruction. An MContext is
// single-threaded by design — each flow job owns its own context.
#pragma once

#include "mir/Attributes.h"
#include "mir/Types.h"

#include <cstddef>
#include <memory>
#include <string_view>

namespace mha::mir {

class MContext {
public:
  MContext();
  ~MContext();

  MContext(const MContext &) = delete;
  MContext &operator=(const MContext &) = delete;

  // --- Types ---
  Type *indexTy();
  Type *noneTy();
  IntegerType *intTy(unsigned width);
  IntegerType *i1() { return intTy(1); }
  IntegerType *i32() { return intTy(32); }
  IntegerType *i64() { return intTy(64); }
  Type *f32();
  Type *f64();
  MemRefType *memrefTy(std::vector<int64_t> shape, Type *element);
  FunctionType *fnTy(std::vector<Type *> inputs, std::vector<Type *> results);

  // --- Attributes ---
  const IntegerAttr *intAttr(int64_t value);
  const FloatAttr *floatAttr(double value);
  const StringAttr *stringAttr(std::string value);
  const TypeAttr *typeAttr(Type *type);
  const ArrayAttr *arrayAttr(std::vector<const Attribute *> value);
  const AffineMapAttr *affineMapAttr(AffineMap map);
  const UnitAttr *unitAttr();

  // --- Affine expressions (folded on construction) ---
  const AffineExpr *affineConst(int64_t value);
  const AffineExpr *affineDim(unsigned position);
  const AffineExpr *affineSymbol(unsigned position);
  const AffineExpr *affineAdd(const AffineExpr *lhs, const AffineExpr *rhs);
  const AffineExpr *affineMul(const AffineExpr *lhs, const AffineExpr *rhs);
  const AffineExpr *affineMod(const AffineExpr *lhs, const AffineExpr *rhs);
  const AffineExpr *affineFloorDiv(const AffineExpr *lhs,
                                   const AffineExpr *rhs);
  const AffineExpr *affineCeilDiv(const AffineExpr *lhs,
                                  const AffineExpr *rhs);

  /// Bytes currently held by the uniquing arena (telemetry/tests).
  size_t arenaBytes() const;

private:
  struct Impl;

  /// Placement-constructs a node in the arena. Member of MContext so the
  /// nodes' private constructors (friend class MContext) stay reachable.
  template <typename T, typename... Args> T *alloc(Args &&...args);

  std::unique_ptr<Impl> impl_;
};

} // namespace mha::mir
