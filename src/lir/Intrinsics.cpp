#include "lir/Intrinsics.h"

#include "lir/Function.h"
#include "lir/LContext.h"
#include "support/StringUtils.h"

#include <set>

namespace mha::lir {

bool isModernIntrinsic(const Function &fn) {
  return startsWith(fn.name(), "llvm.");
}

bool isHlsMathFunction(const std::string &name) {
  static const std::set<std::string> known = {
      "hls_sqrt", "hls_fabs", "hls_exp",  "hls_log",
      "hls_sin",  "hls_cos",  "hls_pow",  "hls_sqrtf",
      "hls_fabsf", "hls_expf", "hls_logf", "hls_sinf",
      "hls_cosf", "hls_powf"};
  return known.count(name) > 0;
}

static Function *getOrDeclare(Module &module, const std::string &name,
                              FunctionType *type) {
  if (Function *fn = module.getFunction(name))
    return fn;
  return module.createFunction(type, name);
}

static const char *typeSuffix(Type *type) {
  return type->kind() == Type::Kind::Float ? "f32" : "f64";
}

Function *getMemcpyIntrinsic(Module &module) {
  LContext &ctx = module.context();
  Type *ptr = ctx.emitOpaquePointers
                  ? static_cast<Type *>(ctx.opaquePtrTy())
                  : static_cast<Type *>(ctx.ptrTy(ctx.i8()));
  return getOrDeclare(module, "llvm.memcpy.p0.p0.i64",
                      ctx.fnTy(ctx.voidTy(), {ptr, ptr, ctx.i64()}));
}

Function *getFMulAddIntrinsic(Module &module, Type *type) {
  LContext &ctx = module.context();
  return getOrDeclare(module,
                      strfmt("llvm.fmuladd.%s", typeSuffix(type)),
                      ctx.fnTy(type, {type, type, type}));
}

Function *getSqrtIntrinsic(Module &module, Type *type) {
  LContext &ctx = module.context();
  return getOrDeclare(module, strfmt("llvm.sqrt.%s", typeSuffix(type)),
                      ctx.fnTy(type, {type}));
}

Function *getHlsMathFunction(Module &module, const std::string &op,
                             Type *type) {
  LContext &ctx = module.context();
  std::string name = "hls_" + op;
  if (type->kind() == Type::Kind::Float)
    name += "f";
  if (op == "pow")
    return getOrDeclare(module, name, ctx.fnTy(type, {type, type}));
  return getOrDeclare(module, name, ctx.fnTy(type, {type}));
}

} // namespace mha::lir
