#include "lir/LContext.h"

#include "lir/Constants.h"
#include "support/Arena.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <mutex>
#include <cassert>
#include <cstring>
#include <unordered_map>

namespace mha::lir {

namespace {
/// A non-IntType singleton type (void, float, double, label).
class SimpleType : public Type {
public:
  SimpleType(LContext &ctx, Kind kind) : Type(ctx, kind) {}
};
} // namespace

struct LContext::Impl {
  explicit Impl(LContext &ctx)
      : voidTy(ctx, Type::Kind::Void), labelTy(ctx, Type::Kind::Label),
        floatTy(ctx, Type::Kind::Float), doubleTy(ctx, Type::Kind::Double) {}

  BumpAllocator arena;

  SimpleType voidTy;
  SimpleType labelTy;
  SimpleType floatTy;
  SimpleType doubleTy;

  // Every uniquing method locks this, so types and constants may be
  // created from any thread. Uncontended in serial mode.
  std::mutex uniquingMutex;

  std::unordered_map<unsigned, IntType *> intTypes;
  std::unordered_map<Type *, PointerType *> ptrTypes;
  PointerType *opaquePtr = nullptr;
  // Composite-key maps use an FNV hash of the structure -> candidate
  // list, verified structurally on each hit (collisions stay correct).
  std::unordered_map<uint64_t, std::vector<ArrayType *>> arrayTypes;
  std::unordered_map<uint64_t, std::vector<StructType *>> structTypes;
  std::unordered_map<uint64_t, std::vector<FunctionType *>> fnTypes;

  std::unordered_map<uint64_t, std::vector<ConstantInt *>> intConsts;
  // Keyed by bit pattern, not value: keying on the double itself aliases
  // every NaN payload onto one node and merges +0.0/-0.0.
  std::unordered_map<uint64_t, std::vector<ConstantFP *>> fpConsts;
  std::unordered_map<Type *, UndefValue *> undefs;
};

template <typename T, typename... Args> T *LContext::alloc(Args &&...args) {
  void *mem = impl_->arena.allocate(sizeof(T), alignof(T));
  T *obj = new (mem) T(std::forward<Args>(args)...);
  impl_->arena.registerDestructor(obj);
  return obj;
}

LContext::LContext() : impl_(std::make_unique<Impl>(*this)) {}
LContext::~LContext() = default;

size_t LContext::arenaBytes() const { return impl_->arena.bytesAllocated(); }

Type *LContext::voidTy() { return &impl_->voidTy; }
Type *LContext::labelTy() { return &impl_->labelTy; }
Type *LContext::floatTy() { return &impl_->floatTy; }
Type *LContext::doubleTy() { return &impl_->doubleTy; }

IntType *LContext::intTy(unsigned width) {
  assert(width >= 1 && width <= 64 && "unsupported integer width");
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  auto &slot = impl_->intTypes[width];
  if (!slot)
    slot = alloc<IntType>(*this, width);
  return slot;
}

PointerType *LContext::ptrTy(Type *pointee) {
  assert(pointee && "use opaquePtrTy() for opaque pointers");
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  auto &slot = impl_->ptrTypes[pointee];
  if (!slot)
    slot = alloc<PointerType>(*this, pointee);
  return slot;
}

PointerType *LContext::opaquePtrTy() {
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  if (!impl_->opaquePtr)
    impl_->opaquePtr = alloc<PointerType>(*this, nullptr);
  return impl_->opaquePtr;
}

ArrayType *LContext::arrayTy(Type *element, uint64_t count) {
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  uint64_t key = HashBuilder().pointer(element).u64(count).get();
  auto &bucket = impl_->arrayTypes[key];
  for (ArrayType *at : bucket)
    if (at->element() == element && at->numElements() == count)
      return at;
  bucket.push_back(alloc<ArrayType>(*this, element, count));
  return bucket.back();
}

StructType *LContext::structTy(std::string name, std::vector<Type *> fields) {
  // Structs are uniqued by structural equality (name is cosmetic).
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  HashBuilder h;
  h.str(name).u64(fields.size());
  for (Type *f : fields)
    h.pointer(f);
  auto &bucket = impl_->structTypes[h.get()];
  for (StructType *st : bucket)
    if (st->fields() == fields && st->name() == name)
      return st;
  bucket.push_back(
      alloc<StructType>(*this, std::move(name), std::move(fields)));
  return bucket.back();
}

FunctionType *LContext::fnTy(Type *ret, std::vector<Type *> params) {
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  HashBuilder h;
  h.pointer(ret).u64(params.size());
  for (Type *p : params)
    h.pointer(p);
  auto &bucket = impl_->fnTypes[h.get()];
  for (FunctionType *ft : bucket)
    if (ft->returnType() == ret && ft->paramTypes() == params)
      return ft;
  bucket.push_back(alloc<FunctionType>(*this, ret, std::move(params)));
  return bucket.back();
}

ConstantInt *LContext::constInt(IntType *type, int64_t value) {
  // Normalize to the type's width so i1 true is always stored as 1.
  if (type->width() < 64) {
    uint64_t mask = (uint64_t(1) << type->width()) - 1;
    uint64_t bits = static_cast<uint64_t>(value) & mask;
    // Sign-extend for canonical storage.
    uint64_t sign = uint64_t(1) << (type->width() - 1);
    value = static_cast<int64_t>((bits ^ sign) - sign);
  }
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  uint64_t key = HashBuilder().pointer(type).i64(value).get();
  auto &bucket = impl_->intConsts[key];
  for (ConstantInt *c : bucket)
    if (c->type() == type && c->value() == value)
      return c;
  bucket.push_back(alloc<ConstantInt>(type, value));
  return bucket.back();
}

ConstantInt *LContext::constI1(bool value) {
  return constInt(i1(), value ? -1 : 0);
}
ConstantInt *LContext::constI32(int32_t value) {
  return constInt(i32(), value);
}
ConstantInt *LContext::constI64(int64_t value) {
  return constInt(i64(), value);
}

ConstantFP *LContext::constFP(Type *type, double value) {
  assert(type->isFloatingPoint());
  if (type->kind() == Type::Kind::Float)
    value = static_cast<float>(value); // round to storage precision
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  uint64_t key = HashBuilder().pointer(type).u64(bits).get();
  auto &bucket = impl_->fpConsts[key];
  for (ConstantFP *c : bucket) {
    uint64_t cbits;
    std::memcpy(&cbits, &c->value_, sizeof(cbits));
    if (c->type() == type && cbits == bits)
      return c;
  }
  bucket.push_back(alloc<ConstantFP>(type, value));
  return bucket.back();
}

UndefValue *LContext::undef(Type *type) {
  std::lock_guard<std::mutex> lock(impl_->uniquingMutex);
  auto &slot = impl_->undefs[type];
  if (!slot)
    slot = alloc<UndefValue>(type);
  return slot;
}

// --- Type methods that need full definitions ---

uint64_t Type::sizeInBytes() const {
  switch (kind_) {
  case Kind::Void:
  case Kind::Label:
  case Kind::Function:
    return 0;
  case Kind::Integer: {
    unsigned w = static_cast<const IntType *>(this)->width();
    return (w + 7) / 8;
  }
  case Kind::Float:
    return 4;
  case Kind::Double:
    return 8;
  case Kind::Pointer:
    return 8;
  case Kind::Array: {
    auto *at = static_cast<const ArrayType *>(this);
    return at->element()->sizeInBytes() * at->numElements();
  }
  case Kind::Struct: {
    auto *st = static_cast<const StructType *>(this);
    uint64_t size = 0;
    for (Type *f : st->fields())
      size += f->sizeInBytes();
    return size;
  }
  }
  return 0;
}

std::string Type::str() const {
  switch (kind_) {
  case Kind::Void:
    return "void";
  case Kind::Label:
    return "label";
  case Kind::Integer:
    return strfmt("i%u", static_cast<const IntType *>(this)->width());
  case Kind::Float:
    return "float";
  case Kind::Double:
    return "double";
  case Kind::Pointer: {
    auto *pt = static_cast<const PointerType *>(this);
    if (pt->isOpaque())
      return "ptr";
    return pt->pointee()->str() + "*";
  }
  case Kind::Array: {
    auto *at = static_cast<const ArrayType *>(this);
    return strfmt("[%llu x %s]",
                  static_cast<unsigned long long>(at->numElements()),
                  at->element()->str().c_str());
  }
  case Kind::Struct: {
    auto *st = static_cast<const StructType *>(this);
    std::string out = "{ ";
    for (size_t i = 0; i < st->fields().size(); ++i) {
      if (i)
        out += ", ";
      out += st->fields()[i]->str();
    }
    out += " }";
    return out;
  }
  case Kind::Function: {
    auto *ft = static_cast<const FunctionType *>(this);
    std::string out = ft->returnType()->str() + " (";
    for (size_t i = 0; i < ft->paramTypes().size(); ++i) {
      if (i)
        out += ", ";
      out += ft->paramTypes()[i]->str();
    }
    out += ")";
    return out;
  }
  }
  return "<?>";
}

} // namespace mha::lir
