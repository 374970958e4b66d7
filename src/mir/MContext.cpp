#include "mir/MContext.h"

#include "support/Arena.h"
#include "support/Compiler.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "support/Json.h"

#include <cstring>
#include <unordered_map>
#include <vector>

namespace mha::mir {

namespace {
class SimpleMType : public Type {
public:
  SimpleMType(MContext &ctx, Kind kind) : Type(ctx, kind) {}
};

/// Key for the affine-expression uniquing map: leaves carry (tag, value),
/// binaries carry (tag, lhs, rhs) over already-uniqued operands.
struct AffineKey {
  int tag;
  int64_t value;
  const AffineExpr *lhs;
  const AffineExpr *rhs;

  bool operator==(const AffineKey &o) const {
    return tag == o.tag && value == o.value && lhs == o.lhs && rhs == o.rhs;
  }
};

struct AffineKeyHash {
  size_t operator()(const AffineKey &k) const {
    return HashBuilder()
        .u32(static_cast<uint32_t>(k.tag))
        .i64(k.value)
        .pointer(k.lhs)
        .pointer(k.rhs)
        .get();
  }
};

uint64_t bitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}
} // namespace

struct MContext::Impl {
  explicit Impl(MContext &ctx)
      : indexTy(ctx, Type::Kind::Index), noneTy(ctx, Type::Kind::None),
        f32Ty(ctx, Type::Kind::Float), f64Ty(ctx, Type::Kind::Double) {}

  BumpAllocator arena;
  SimpleMType indexTy, noneTy, f32Ty, f64Ty;

  std::unordered_map<unsigned, IntegerType *> intTypes;
  // Composite-key uniquing: FNV hash of the structure -> candidate list,
  // with structural verification on every hit so hash collisions stay
  // correct (just slower).
  std::unordered_map<uint64_t, std::vector<MemRefType *>> memrefTypes;
  std::unordered_map<uint64_t, std::vector<FunctionType *>> fnTypes;

  std::unordered_map<int64_t, IntegerAttr *> intAttrs;
  // Keyed on the bit pattern, not the double: a double-keyed map aliases
  // every NaN payload onto one node and merges +0.0/-0.0.
  std::unordered_map<uint64_t, FloatAttr *> floatAttrs;
  // Keyed on views into each attr's own (arena-pinned) storage.
  std::unordered_map<std::string_view, StringAttr *> stringAttrs;
  std::unordered_map<Type *, TypeAttr *> typeAttrs;
  std::unordered_map<uint64_t, std::vector<ArrayAttr *>> arrayAttrs;
  std::unordered_map<uint64_t, std::vector<AffineMapAttr *>> mapAttrs;
  UnitAttr *unitAttr = nullptr;

  std::unordered_map<AffineKey, const AffineExpr *, AffineKeyHash>
      affineUnique;

  const AffineExpr *makeBinary(MContext &ctx, AffineExpr::Kind kind,
                               const AffineExpr *lhs, const AffineExpr *rhs);
};

template <typename T, typename... Args> T *MContext::alloc(Args &&...args) {
  void *mem = impl_->arena.allocate(sizeof(T), alignof(T));
  T *obj = new (mem) T(std::forward<Args>(args)...);
  impl_->arena.registerDestructor(obj);
  return obj;
}

MContext::MContext() : impl_(std::make_unique<Impl>(*this)) {}
MContext::~MContext() = default;

size_t MContext::arenaBytes() const { return impl_->arena.bytesAllocated(); }

Type *MContext::indexTy() { return &impl_->indexTy; }
Type *MContext::noneTy() { return &impl_->noneTy; }
Type *MContext::f32() { return &impl_->f32Ty; }
Type *MContext::f64() { return &impl_->f64Ty; }

IntegerType *MContext::intTy(unsigned width) {
  auto &slot = impl_->intTypes[width];
  if (!slot)
    slot = alloc<IntegerType>(*this, width);
  return slot;
}

MemRefType *MContext::memrefTy(std::vector<int64_t> shape, Type *element) {
  HashBuilder h;
  h.pointer(element).u64(shape.size());
  for (int64_t d : shape)
    h.i64(d);
  auto &bucket = impl_->memrefTypes[h.get()];
  for (MemRefType *mt : bucket)
    if (mt->shape() == shape && mt->elementType() == element)
      return mt;
  bucket.push_back(alloc<MemRefType>(*this, std::move(shape), element));
  return bucket.back();
}

FunctionType *MContext::fnTy(std::vector<Type *> inputs,
                             std::vector<Type *> results) {
  HashBuilder h;
  h.u64(inputs.size());
  for (Type *t : inputs)
    h.pointer(t);
  h.u64(results.size());
  for (Type *t : results)
    h.pointer(t);
  auto &bucket = impl_->fnTypes[h.get()];
  for (FunctionType *ft : bucket)
    if (ft->inputs() == inputs && ft->results() == results)
      return ft;
  bucket.push_back(
      alloc<FunctionType>(*this, std::move(inputs), std::move(results)));
  return bucket.back();
}

const IntegerAttr *MContext::intAttr(int64_t value) {
  auto &slot = impl_->intAttrs[value];
  if (!slot)
    slot = alloc<IntegerAttr>(value);
  return slot;
}

const FloatAttr *MContext::floatAttr(double value) {
  auto &slot = impl_->floatAttrs[bitsOf(value)];
  if (!slot)
    slot = alloc<FloatAttr>(value);
  return slot;
}

const StringAttr *MContext::stringAttr(std::string value) {
  auto it = impl_->stringAttrs.find(std::string_view(value));
  if (it != impl_->stringAttrs.end())
    return it->second;
  StringAttr *attr = alloc<StringAttr>(std::move(value));
  // The key views the attr's own string: arena nodes never move, so the
  // view stays valid for the context's lifetime.
  impl_->stringAttrs.emplace(std::string_view(attr->value()), attr);
  return attr;
}

const TypeAttr *MContext::typeAttr(Type *type) {
  auto &slot = impl_->typeAttrs[type];
  if (!slot)
    slot = alloc<TypeAttr>(type);
  return slot;
}

const ArrayAttr *MContext::arrayAttr(std::vector<const Attribute *> value) {
  HashBuilder h;
  h.u64(value.size());
  for (const Attribute *a : value)
    h.pointer(a);
  auto &bucket = impl_->arrayAttrs[h.get()];
  for (ArrayAttr *a : bucket)
    if (a->value() == value)
      return a;
  bucket.push_back(alloc<ArrayAttr>(std::move(value)));
  return bucket.back();
}

const AffineMapAttr *MContext::affineMapAttr(AffineMap map) {
  HashBuilder h;
  h.u32(map.numDims()).u32(map.numSymbols()).u64(map.results().size());
  for (const AffineExpr *e : map.results())
    h.pointer(e);
  auto &bucket = impl_->mapAttrs[h.get()];
  for (AffineMapAttr *a : bucket)
    if (a->value() == map)
      return a;
  bucket.push_back(alloc<AffineMapAttr>(std::move(map)));
  return bucket.back();
}

const UnitAttr *MContext::unitAttr() {
  if (!impl_->unitAttr)
    impl_->unitAttr = alloc<UnitAttr>();
  return impl_->unitAttr;
}

// --- Affine expressions ---

const AffineExpr *MContext::affineConst(int64_t value) {
  AffineKey key{0, value, nullptr, nullptr};
  auto it = impl_->affineUnique.find(key);
  if (it != impl_->affineUnique.end())
    return it->second;
  return impl_->affineUnique[key] =
             alloc<AffineExpr>(AffineExpr::Kind::Constant, value, nullptr,
                               nullptr);
}

const AffineExpr *MContext::affineDim(unsigned position) {
  AffineKey key{1, static_cast<int64_t>(position), nullptr, nullptr};
  auto it = impl_->affineUnique.find(key);
  if (it != impl_->affineUnique.end())
    return it->second;
  return impl_->affineUnique[key] =
             alloc<AffineExpr>(AffineExpr::Kind::Dim, position, nullptr,
                               nullptr);
}

const AffineExpr *MContext::affineSymbol(unsigned position) {
  AffineKey key{2, static_cast<int64_t>(position), nullptr, nullptr};
  auto it = impl_->affineUnique.find(key);
  if (it != impl_->affineUnique.end())
    return it->second;
  return impl_->affineUnique[key] =
             alloc<AffineExpr>(AffineExpr::Kind::Symbol, position, nullptr,
                               nullptr);
}

static int kindTag(AffineExpr::Kind kind) {
  switch (kind) {
  case AffineExpr::Kind::Add:
    return 3;
  case AffineExpr::Kind::Mul:
    return 4;
  case AffineExpr::Kind::Mod:
    return 5;
  case AffineExpr::Kind::FloorDiv:
    return 6;
  case AffineExpr::Kind::CeilDiv:
    return 7;
  default:
    unreachable("not a binary affine kind");
  }
}

static int64_t floorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0)))
    --q;
  return q;
}

static int64_t ceilDiv(int64_t a, int64_t b) { return -floorDiv(-a, b); }

static int64_t euclidMod(int64_t a, int64_t b) {
  int64_t r = a % b;
  return r < 0 ? r + (b < 0 ? -b : b) : r;
}

const AffineExpr *MContext::affineAdd(const AffineExpr *lhs,
                                      const AffineExpr *rhs) {
  if (lhs->isConstant() && rhs->isConstant())
    return affineConst(lhs->value() + rhs->value());
  if (lhs->isConstant() && lhs->value() == 0)
    return rhs;
  if (rhs->isConstant() && rhs->value() == 0)
    return lhs;
  return impl_->makeBinary(*this, AffineExpr::Kind::Add, lhs, rhs);
}

const AffineExpr *MContext::affineMul(const AffineExpr *lhs,
                                      const AffineExpr *rhs) {
  if (lhs->isConstant() && rhs->isConstant())
    return affineConst(lhs->value() * rhs->value());
  if (lhs->isConstant() && lhs->value() == 1)
    return rhs;
  if (rhs->isConstant() && rhs->value() == 1)
    return lhs;
  if ((lhs->isConstant() && lhs->value() == 0) ||
      (rhs->isConstant() && rhs->value() == 0))
    return affineConst(0);
  return impl_->makeBinary(*this, AffineExpr::Kind::Mul, lhs, rhs);
}

const AffineExpr *MContext::Impl::makeBinary(MContext &ctx,
                                             AffineExpr::Kind kind,
                                             const AffineExpr *lhs,
                                             const AffineExpr *rhs) {
  AffineKey key{kindTag(kind), 0, lhs, rhs};
  auto it = affineUnique.find(key);
  if (it != affineUnique.end())
    return it->second;
  return affineUnique[key] = ctx.alloc<AffineExpr>(kind, 0, lhs, rhs);
}

const AffineExpr *MContext::affineMod(const AffineExpr *lhs,
                                      const AffineExpr *rhs) {
  if (lhs->isConstant() && rhs->isConstant() && rhs->value() != 0)
    return affineConst(euclidMod(lhs->value(), rhs->value()));
  return impl_->makeBinary(*this, AffineExpr::Kind::Mod, lhs, rhs);
}

const AffineExpr *MContext::affineFloorDiv(const AffineExpr *lhs,
                                           const AffineExpr *rhs) {
  if (lhs->isConstant() && rhs->isConstant() && rhs->value() != 0)
    return affineConst(floorDiv(lhs->value(), rhs->value()));
  return impl_->makeBinary(*this, AffineExpr::Kind::FloorDiv, lhs, rhs);
}

const AffineExpr *MContext::affineCeilDiv(const AffineExpr *lhs,
                                          const AffineExpr *rhs) {
  if (lhs->isConstant() && rhs->isConstant() && rhs->value() != 0)
    return affineConst(ceilDiv(lhs->value(), rhs->value()));
  return impl_->makeBinary(*this, AffineExpr::Kind::CeilDiv, lhs, rhs);
}

// --- AffineExpr / AffineMap methods ---

int64_t AffineExpr::evaluate(const std::vector<int64_t> &dims,
                             const std::vector<int64_t> &symbols) const {
  switch (kind_) {
  case Kind::Constant:
    return value_;
  case Kind::Dim:
    return dims.at(static_cast<size_t>(value_));
  case Kind::Symbol:
    return symbols.at(static_cast<size_t>(value_));
  case Kind::Add:
    return lhs_->evaluate(dims, symbols) + rhs_->evaluate(dims, symbols);
  case Kind::Mul:
    return lhs_->evaluate(dims, symbols) * rhs_->evaluate(dims, symbols);
  case Kind::Mod:
    return euclidMod(lhs_->evaluate(dims, symbols),
                     rhs_->evaluate(dims, symbols));
  case Kind::FloorDiv:
    return floorDiv(lhs_->evaluate(dims, symbols),
                    rhs_->evaluate(dims, symbols));
  case Kind::CeilDiv:
    return ceilDiv(lhs_->evaluate(dims, symbols),
                   rhs_->evaluate(dims, symbols));
  }
  unreachable("bad affine kind");
}

std::string AffineExpr::str() const {
  switch (kind_) {
  case Kind::Constant:
    return strfmt("%lld", static_cast<long long>(value_));
  case Kind::Dim:
    return strfmt("d%lld", static_cast<long long>(value_));
  case Kind::Symbol:
    return strfmt("s%lld", static_cast<long long>(value_));
  case Kind::Add:
    return "(" + lhs_->str() + " + " + rhs_->str() + ")";
  case Kind::Mul:
    return "(" + lhs_->str() + " * " + rhs_->str() + ")";
  case Kind::Mod:
    return "(" + lhs_->str() + " mod " + rhs_->str() + ")";
  case Kind::FloorDiv:
    return "(" + lhs_->str() + " floordiv " + rhs_->str() + ")";
  case Kind::CeilDiv:
    return "(" + lhs_->str() + " ceildiv " + rhs_->str() + ")";
  }
  unreachable("bad affine kind");
}

std::vector<int64_t>
AffineMap::evaluate(const std::vector<int64_t> &dims,
                    const std::vector<int64_t> &symbols) const {
  std::vector<int64_t> out;
  out.reserve(results_.size());
  for (const AffineExpr *expr : results_)
    out.push_back(expr->evaluate(dims, symbols));
  return out;
}

AffineMap AffineMap::identity(MContext &ctx, unsigned rank) {
  std::vector<const AffineExpr *> results;
  for (unsigned i = 0; i < rank; ++i)
    results.push_back(ctx.affineDim(i));
  return AffineMap(rank, 0, std::move(results));
}

std::string AffineMap::str() const {
  std::string out = "(";
  for (unsigned i = 0; i < numDims_; ++i) {
    if (i)
      out += ", ";
    out += strfmt("d%u", i);
  }
  out += ")";
  if (numSymbols_) {
    out += "[";
    for (unsigned i = 0; i < numSymbols_; ++i) {
      if (i)
        out += ", ";
      out += strfmt("s%u", i);
    }
    out += "]";
  }
  out += " -> (";
  for (size_t i = 0; i < results_.size(); ++i) {
    if (i)
      out += ", ";
    out += results_[i]->str();
  }
  out += ")";
  return out;
}

// --- Type / Attribute printing ---

std::string Type::str() const {
  switch (kind_) {
  case Kind::Index:
    return "index";
  case Kind::None:
    return "none";
  case Kind::Integer:
    return strfmt("i%u", static_cast<const IntegerType *>(this)->width());
  case Kind::Float:
    return "f32";
  case Kind::Double:
    return "f64";
  case Kind::MemRef: {
    auto *mt = static_cast<const MemRefType *>(this);
    std::string out = "memref<";
    for (int64_t d : mt->shape())
      out += strfmt("%lldx", static_cast<long long>(d));
    out += mt->elementType()->str() + ">";
    return out;
  }
  case Kind::Function: {
    auto *ft = static_cast<const FunctionType *>(this);
    std::string out = "(";
    for (size_t i = 0; i < ft->inputs().size(); ++i) {
      if (i)
        out += ", ";
      out += ft->inputs()[i]->str();
    }
    out += ") -> (";
    for (size_t i = 0; i < ft->results().size(); ++i) {
      if (i)
        out += ", ";
      out += ft->results()[i]->str();
    }
    out += ")";
    return out;
  }
  }
  unreachable("bad type kind");
}

std::string Attribute::str() const {
  switch (kind_) {
  case Kind::Integer:
    return strfmt("%lld", static_cast<long long>(
                              static_cast<const IntegerAttr *>(this)->value()));
  case Kind::Float:
    // Shortest round-trip form, locale-independent: %g honours LC_NUMERIC
    // and prints "1,5" under a comma-decimal locale, breaking reparse.
    return json::shortestDouble(static_cast<const FloatAttr *>(this)->value());
  case Kind::String:
    return "\"" + static_cast<const StringAttr *>(this)->value() + "\"";
  case Kind::Type:
    return static_cast<const TypeAttr *>(this)->value()->str();
  case Kind::Array: {
    std::string out = "[";
    const auto &elems = static_cast<const ArrayAttr *>(this)->value();
    for (size_t i = 0; i < elems.size(); ++i) {
      if (i)
        out += ", ";
      out += elems[i]->str();
    }
    out += "]";
    return out;
  }
  case Kind::AffineMap:
    return "affine_map<" +
           static_cast<const AffineMapAttr *>(this)->value().str() + ">";
  case Kind::Unit:
    return "unit";
  }
  unreachable("bad attribute kind");
}

} // namespace mha::mir
