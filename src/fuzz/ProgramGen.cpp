// ProgramGen.cpp - seeded random kernel/IR generation.
//
// Both generators are driven by splitmix64 so a seed reproduces the exact
// same program on every platform (std::uniform_int_distribution is
// implementation-defined and would break cross-machine replay of fuzzer
// reports).
//
// Generation invariants the oracle relies on:
//  * Kernel mode never builds an integer operation whose operands are both
//    constants: the MLIR canonicalizer folds const⊗const with host int64
//    arithmetic, which is UB for the boundary constants we want to emit.
//    Every integer binop's left subtree contains an induction variable.
//  * Kernel-mode divisions/remainders use constant divisors outside
//    {-1, 0, 1}, so no evaluation can trap anywhere in the pipeline.
//  * Kernel-mode constants avoid exact INT64_MIN: the HLS-C++ emitter
//    prints it as "-9223372036854775808" and the strict frontend lexer
//    tokenizes the minus separately, leaving an out-of-range literal.
//  * IR mode keeps i1 values confined to select conditions; arithmetic and
//    casts operate on i8/i16/i32/i64.
#include "fuzz/ProgramGen.h"

#include "mir/Builder.h"
#include "mir/MContext.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Json.h"
#include "support/IntMath.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>

namespace mha::fuzz {

namespace {

// Wrap-around helpers over canonical values.
int64_t wrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t wrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t wrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// Integer constants safe through every pipeline stage (see the INT64_MIN
/// note in the file header).
const int64_t kIntConstPool[] = {0,    1,     -1,       2,
                                 3,    7,     -13,      255,
                                 4096, -4095, INT64_MAX, INT64_MIN + 1};

/// Divisors for DivC/RemC: never -1, 0 or 1, so sdiv/srem cannot trap.
const int64_t kDivisorPool[] = {-7, -5, -3, -2, 2, 3, 5, 7, 8};

const double kFloatConstPool[] = {0.0, 1.0,  -1.0, 0.5,  1.5,
                                  2.0, -2.5, 4.0,  0.25, -0.75};

} // namespace

// --- Program (kernel mode) ---

namespace {

void collectReachable(const Program &p, std::vector<bool> &fSeen,
                      std::vector<bool> &iSeen) {
  fSeen.assign(p.fpool.size(), false);
  iSeen.assign(p.ipool.size(), false);
  std::vector<int> fStack;
  for (const Stmt &s : p.stmts)
    if (s.root >= 0)
      fStack.push_back(s.root);
  std::vector<int> iStack;
  while (!fStack.empty()) {
    int idx = fStack.back();
    fStack.pop_back();
    if (fSeen[static_cast<size_t>(idx)])
      continue;
    fSeen[static_cast<size_t>(idx)] = true;
    const FExpr &e = p.fpool[static_cast<size_t>(idx)];
    if (e.lhs >= 0)
      fStack.push_back(e.lhs);
    if (e.rhs >= 0)
      fStack.push_back(e.rhs);
    if (e.iexpr >= 0)
      iStack.push_back(e.iexpr);
  }
  while (!iStack.empty()) {
    int idx = iStack.back();
    iStack.pop_back();
    if (iSeen[static_cast<size_t>(idx)])
      continue;
    iSeen[static_cast<size_t>(idx)] = true;
    const IExpr &e = p.ipool[static_cast<size_t>(idx)];
    if (e.lhs >= 0)
      iStack.push_back(e.lhs);
    if (e.rhs >= 0)
      iStack.push_back(e.rhs);
  }
}

std::string describeI(const Program &p, int idx) {
  const IExpr &e = p.ipool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case IExpr::Kind::IV:
    return strfmt("i%d", e.iv);
  case IExpr::Kind::Const:
    return strfmt("%lld", static_cast<long long>(e.cst));
  case IExpr::Kind::Add:
    return "(" + describeI(p, e.lhs) + "+" + describeI(p, e.rhs) + ")";
  case IExpr::Kind::Sub:
    return "(" + describeI(p, e.lhs) + "-" + describeI(p, e.rhs) + ")";
  case IExpr::Kind::Mul:
    return "(" + describeI(p, e.lhs) + "*" + describeI(p, e.rhs) + ")";
  case IExpr::Kind::DivC:
    return "(" + describeI(p, e.lhs) +
           strfmt("/%lld)", static_cast<long long>(e.cst));
  case IExpr::Kind::RemC:
    return "(" + describeI(p, e.lhs) +
           strfmt("%%%lld)", static_cast<long long>(e.cst));
  }
  return "?";
}

std::string describeF(const Program &p, int idx) {
  const FExpr &e = p.fpool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case FExpr::Kind::LoadA: {
    std::string row, col;
    for (size_t l = 0; l < e.rowCoef.size(); ++l) {
      row += strfmt("%lld*i%zu+", static_cast<long long>(e.rowCoef[l]), l);
      col += strfmt("%lld*i%zu+", static_cast<long long>(e.colCoef[l]), l);
    }
    row += strfmt("%lld", static_cast<long long>(e.rowCst));
    col += strfmt("%lld", static_cast<long long>(e.colCst));
    return "A[" + row + "][" + col + "]";
  }
  case FExpr::Kind::LoadOut:
    return "Out[.]";
  case FExpr::Kind::ConstF:
    // Locale-independent (%g prints ',' decimals under e.g. de_DE).
    return json::shortestDouble(e.cst);
  case FExpr::Kind::FromInt:
    return "int2fp(" + describeI(p, e.iexpr) + ")";
  case FExpr::Kind::Add:
    return "(" + describeF(p, e.lhs) + "+" + describeF(p, e.rhs) + ")";
  case FExpr::Kind::Sub:
    return "(" + describeF(p, e.lhs) + "-" + describeF(p, e.rhs) + ")";
  case FExpr::Kind::Mul:
    return "(" + describeF(p, e.lhs) + "*" + describeF(p, e.rhs) + ")";
  case FExpr::Kind::Div:
    return "(" + describeF(p, e.lhs) + "/" + describeF(p, e.rhs) + ")";
  case FExpr::Kind::Sqrt:
    return "sqrt(" + describeF(p, e.lhs) + ")";
  case FExpr::Kind::Fabs:
    return "fabs(" + describeF(p, e.lhs) + ")";
  }
  return "?";
}

int64_t evalI(const Program &p, int idx, const std::vector<int64_t> &ivs) {
  const IExpr &e = p.ipool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case IExpr::Kind::IV:
    return ivs[static_cast<size_t>(e.iv)];
  case IExpr::Kind::Const:
    return e.cst;
  case IExpr::Kind::Add:
    return wrapAdd(evalI(p, e.lhs, ivs), evalI(p, e.rhs, ivs));
  case IExpr::Kind::Sub:
    return wrapSub(evalI(p, e.lhs, ivs), evalI(p, e.rhs, ivs));
  case IExpr::Kind::Mul:
    return wrapMul(evalI(p, e.lhs, ivs), evalI(p, e.rhs, ivs));
  case IExpr::Kind::DivC:
    return evalI(p, e.lhs, ivs) / e.cst;
  case IExpr::Kind::RemC:
    return evalI(p, e.lhs, ivs) % e.cst;
  }
  return 0;
}

double evalF(const Program &p, int idx, const std::vector<int64_t> &ivs,
             const std::vector<double> &A, const std::vector<double> &Out,
             int64_t outLinear) {
  const FExpr &e = p.fpool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case FExpr::Kind::LoadA: {
    int64_t row = e.rowCst, col = e.colCst;
    for (size_t l = 0; l < ivs.size(); ++l) {
      row += e.rowCoef[l] * ivs[l];
      col += e.colCoef[l] * ivs[l];
    }
    return A[static_cast<size_t>(row * p.aCols + col)];
  }
  case FExpr::Kind::LoadOut:
    return Out[static_cast<size_t>(outLinear)];
  case FExpr::Kind::ConstF:
    return e.cst;
  case FExpr::Kind::FromInt:
    return static_cast<double>(evalI(p, e.iexpr, ivs));
  case FExpr::Kind::Add:
    return evalF(p, e.lhs, ivs, A, Out, outLinear) +
           evalF(p, e.rhs, ivs, A, Out, outLinear);
  case FExpr::Kind::Sub:
    return evalF(p, e.lhs, ivs, A, Out, outLinear) -
           evalF(p, e.rhs, ivs, A, Out, outLinear);
  case FExpr::Kind::Mul:
    return evalF(p, e.lhs, ivs, A, Out, outLinear) *
           evalF(p, e.rhs, ivs, A, Out, outLinear);
  case FExpr::Kind::Div:
    return evalF(p, e.lhs, ivs, A, Out, outLinear) /
           evalF(p, e.rhs, ivs, A, Out, outLinear);
  case FExpr::Kind::Sqrt:
    return std::sqrt(evalF(p, e.lhs, ivs, A, Out, outLinear));
  case FExpr::Kind::Fabs:
    return std::fabs(evalF(p, e.lhs, ivs, A, Out, outLinear));
  }
  return 0;
}

/// Largest value an induction variable reaches (honors the step).
int64_t maxIv(const LoopSpec &loop) {
  if (loop.ub <= loop.lb)
    return loop.lb;
  return loop.lb + ((loop.ub - 1 - loop.lb) / loop.step) * loop.step;
}

mir::Value *emitI(const Program &p, int idx, mir::OpBuilder &b,
                  const std::vector<mir::Value *> &ivs);

mir::Value *emitF(const Program &p, int idx, mir::OpBuilder &b,
                  mir::FuncOp fn, const std::vector<mir::Value *> &ivs) {
  mir::MContext &ctx = b.context();
  unsigned depth = static_cast<unsigned>(ivs.size());
  const FExpr &e = p.fpool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case FExpr::Kind::LoadA: {
    const mir::AffineExpr *row = ctx.affineConst(e.rowCst);
    const mir::AffineExpr *col = ctx.affineConst(e.colCst);
    for (unsigned l = 0; l < depth; ++l) {
      if (e.rowCoef[l] != 0)
        row = ctx.affineAdd(row, ctx.affineMul(ctx.affineDim(l),
                                               ctx.affineConst(e.rowCoef[l])));
      if (e.colCoef[l] != 0)
        col = ctx.affineAdd(col, ctx.affineMul(ctx.affineDim(l),
                                               ctx.affineConst(e.colCoef[l])));
    }
    mir::AffineMap map(depth, 0, {row, col});
    return b.affineLoad(fn.arg(0), map,
                        std::vector<mir::Value *>(ivs.begin(), ivs.end()));
  }
  case FExpr::Kind::LoadOut:
    return b.affineLoad(fn.arg(1), mir::AffineMap::identity(ctx, depth),
                        std::vector<mir::Value *>(ivs.begin(), ivs.end()));
  case FExpr::Kind::ConstF:
    return b.constantFloat(e.cst, ctx.f64());
  case FExpr::Kind::FromInt:
    return b.sitofp(emitI(p, e.iexpr, b, ivs), ctx.f64());
  case FExpr::Kind::Add:
    return b.binary(mir::ops::AddF, emitF(p, e.lhs, b, fn, ivs),
                    emitF(p, e.rhs, b, fn, ivs));
  case FExpr::Kind::Sub:
    return b.binary(mir::ops::SubF, emitF(p, e.lhs, b, fn, ivs),
                    emitF(p, e.rhs, b, fn, ivs));
  case FExpr::Kind::Mul:
    return b.binary(mir::ops::MulF, emitF(p, e.lhs, b, fn, ivs),
                    emitF(p, e.rhs, b, fn, ivs));
  case FExpr::Kind::Div:
    return b.binary(mir::ops::DivF, emitF(p, e.lhs, b, fn, ivs),
                    emitF(p, e.rhs, b, fn, ivs));
  case FExpr::Kind::Sqrt:
    return b.mathOp(mir::ops::MathSqrt, emitF(p, e.lhs, b, fn, ivs));
  case FExpr::Kind::Fabs:
    return b.mathOp(mir::ops::MathFabs, emitF(p, e.lhs, b, fn, ivs));
  }
  return nullptr;
}

mir::Value *emitI(const Program &p, int idx, mir::OpBuilder &b,
                  const std::vector<mir::Value *> &ivs) {
  mir::MContext &ctx = b.context();
  const IExpr &e = p.ipool[static_cast<size_t>(idx)];
  switch (e.kind) {
  case IExpr::Kind::IV:
    return b.indexCast(ivs[static_cast<size_t>(e.iv)], ctx.i64());
  case IExpr::Kind::Const:
    return b.constantInt(e.cst, ctx.i64());
  case IExpr::Kind::Add:
    return b.binary(mir::ops::AddI, emitI(p, e.lhs, b, ivs),
                    emitI(p, e.rhs, b, ivs));
  case IExpr::Kind::Sub:
    return b.binary(mir::ops::SubI, emitI(p, e.lhs, b, ivs),
                    emitI(p, e.rhs, b, ivs));
  case IExpr::Kind::Mul:
    return b.binary(mir::ops::MulI, emitI(p, e.lhs, b, ivs),
                    emitI(p, e.rhs, b, ivs));
  case IExpr::Kind::DivC:
    return b.binary(mir::ops::DivSI, emitI(p, e.lhs, b, ivs),
                    b.constantInt(e.cst, ctx.i64()));
  case IExpr::Kind::RemC:
    return b.binary(mir::ops::RemSI, emitI(p, e.lhs, b, ivs),
                    b.constantInt(e.cst, ctx.i64()));
  }
  return nullptr;
}

} // namespace

size_t Program::size() const {
  std::vector<bool> fSeen, iSeen;
  collectReachable(*this, fSeen, iSeen);
  size_t n = stmts.size();
  n += static_cast<size_t>(std::count(fSeen.begin(), fSeen.end(), true));
  n += static_cast<size_t>(std::count(iSeen.begin(), iSeen.end(), true));
  return n;
}

std::string Program::describe() const {
  std::string out = "loops[";
  for (size_t l = 0; l < loops.size(); ++l)
    out += strfmt("%s%lld:%lld:%lld", l ? "," : "",
                  static_cast<long long>(loops[l].lb),
                  static_cast<long long>(loops[l].ub),
                  static_cast<long long>(loops[l].step));
  out += "]";
  for (const Stmt &s : stmts)
    out += " Out=" + describeF(*this, s.root);
  return out;
}

void Program::finalizeShapes() {
  std::vector<bool> fSeen, iSeen;
  collectReachable(*this, fSeen, iSeen);
  int64_t maxRow = 0, maxCol = 0;
  for (size_t i = 0; i < fpool.size(); ++i) {
    if (!fSeen[i] || fpool[i].kind != FExpr::Kind::LoadA)
      continue;
    const FExpr &e = fpool[i];
    int64_t row = e.rowCst, col = e.colCst;
    for (size_t l = 0; l < loops.size(); ++l) {
      row += e.rowCoef[l] * maxIv(loops[l]);
      col += e.colCoef[l] * maxIv(loops[l]);
    }
    maxRow = std::max(maxRow, row);
    maxCol = std::max(maxCol, col);
  }
  aRows = maxRow + 1;
  aCols = maxCol + 1;
}

flow::KernelSpec Program::toKernelSpec() const {
  flow::KernelSpec spec;
  spec.name = strfmt("fuzz_%llu", static_cast<unsigned long long>(seed));
  spec.description = describe();
  std::vector<int64_t> outShape;
  for (const LoopSpec &loop : loops)
    outShape.push_back(loop.ub);
  spec.bufferShapes = {{aRows, aCols}, outShape};
  spec.outputs = {1};
  Program copy = *this;
  std::string fnName = spec.name;
  spec.build = [copy, outShape, fnName](mir::MContext &ctx,
                                        const flow::KernelConfig &cfg) {
    mir::OpBuilder b(ctx);
    mir::OwnedModule module = mir::OpBuilder::createModule();
    b.setInsertPoint(module.get().body());
    mir::FuncOp fn = b.createFunc(
        fnName,
        ctx.fnTy({ctx.memrefTy({copy.aRows, copy.aCols}, ctx.f64()),
                  ctx.memrefTy(outShape, ctx.f64())},
                 {}));
    b.setInsertPoint(fn.entryBlock());
    std::vector<mir::Value *> ivs;
    for (size_t l = 0; l < copy.loops.size(); ++l) {
      mir::ForOp loop = b.affineFor(copy.loops[l].lb, copy.loops[l].ub,
                                    copy.loops[l].step);
      if (l + 1 == copy.loops.size() && cfg.applyDirectives &&
          cfg.pipelineII > 0)
        mir::setPipelineDirective(loop, cfg.pipelineII);
      b.setInsertPointToLoopBody(loop);
      ivs.push_back(loop.inductionVar());
    }
    for (const Stmt &s : copy.stmts) {
      mir::Value *v = emitF(copy, s.root, b, fn, ivs);
      b.affineStore(v, fn.arg(1),
                    mir::AffineMap::identity(ctx, static_cast<unsigned>(
                                                      ivs.size())),
                    std::vector<mir::Value *>(ivs.begin(), ivs.end()));
    }
    b.setInsertPoint(fn.entryBlock());
    b.createReturn();
    return module;
  };
  spec.reference = [copy](flow::Buffers &buffers) {
    copy.evalReference(buffers);
  };
  return spec;
}

void Program::evalReference(flow::Buffers &buffers) const {
  const std::vector<double> &A = buffers[0];
  std::vector<double> &Out = buffers[1];
  size_t depth = loops.size();
  std::vector<int64_t> ivs(depth);
  std::vector<int64_t> strides(depth, 1);
  for (size_t l = depth; l-- > 1;)
    strides[l - 1] = strides[l] * loops[l].ub;
  // Iterate the nest with an explicit odometer (depth is dynamic).
  std::function<void(size_t)> runLevel = [&](size_t level) {
    if (level == depth) {
      int64_t linear = 0;
      for (size_t l = 0; l < depth; ++l)
        linear += ivs[l] * strides[l];
      for (const Stmt &s : stmts)
        Out[static_cast<size_t>(linear)] =
            evalF(*this, s.root, ivs, A, Out, linear);
      return;
    }
    for (int64_t iv = loops[level].lb; iv < loops[level].ub;
         iv += loops[level].step) {
      ivs[level] = iv;
      runLevel(level + 1);
    }
  };
  runLevel(0);
}

// --- IrProgram (IR mode) ---

unsigned IrProgram::widthOf(int value) const {
  unsigned v = static_cast<unsigned>(value);
  if (v < numArgs)
    return 64;
  v -= numArgs;
  if (v < consts.size())
    return consts[v].second;
  return insts[v - consts.size()].width;
}

namespace {

/// Operand rendering for IrProgram::lir(): arguments and instruction
/// results are named values, constants print as literals.
std::string irOperand(const IrProgram &p, int value) {
  unsigned v = static_cast<unsigned>(value);
  if (v < p.numArgs)
    return strfmt("%%a%u", v);
  v -= p.numArgs;
  if (v < p.consts.size())
    return strfmt("%lld", static_cast<long long>(p.consts[v].first));
  return strfmt("%%v%u", static_cast<unsigned>(v - p.consts.size()));
}

const char *irOpName(IrInst::Op op) {
  switch (op) {
  case IrInst::Op::Add:
    return "add";
  case IrInst::Op::Sub:
    return "sub";
  case IrInst::Op::Mul:
    return "mul";
  case IrInst::Op::SDiv:
    return "sdiv";
  case IrInst::Op::UDiv:
    return "udiv";
  case IrInst::Op::SRem:
    return "srem";
  case IrInst::Op::URem:
    return "urem";
  case IrInst::Op::And:
    return "and";
  case IrInst::Op::Or:
    return "or";
  case IrInst::Op::Xor:
    return "xor";
  case IrInst::Op::Shl:
    return "shl";
  case IrInst::Op::LShr:
    return "lshr";
  case IrInst::Op::AShr:
    return "ashr";
  case IrInst::Op::Trunc:
    return "trunc";
  case IrInst::Op::ZExt:
    return "zext";
  case IrInst::Op::SExt:
    return "sext";
  case IrInst::Op::ICmp:
    return "icmp";
  case IrInst::Op::Select:
    return "select";
  }
  return "?";
}

} // namespace

std::string IrProgram::lir() const {
  unsigned retWidth = ret >= 0 ? widthOf(ret) : 64;
  std::string out = "!flag opaque-pointers = \"true\"\n\n";
  out += strfmt("define i%u @fuzz_ir(", retWidth);
  for (unsigned i = 0; i < numArgs; ++i)
    out += strfmt("%si64 %%a%u", i ? ", " : "", i);
  out += ") {\nentry:\n";
  for (size_t i = 0; i < insts.size(); ++i) {
    const IrInst &inst = insts[i];
    unsigned operandWidth = inst.a >= 0 ? widthOf(inst.a) : 64;
    switch (inst.op) {
    case IrInst::Op::Trunc:
    case IrInst::Op::ZExt:
    case IrInst::Op::SExt:
      out += strfmt("  %%v%zu = %s i%u %s to i%u\n", i, irOpName(inst.op),
                    operandWidth, irOperand(*this, inst.a).c_str(),
                    inst.width);
      break;
    case IrInst::Op::ICmp:
      out += strfmt("  %%v%zu = icmp slt i%u %s, %s\n", i, operandWidth,
                    irOperand(*this, inst.a).c_str(),
                    irOperand(*this, inst.b).c_str());
      break;
    case IrInst::Op::Select:
      out += strfmt("  %%v%zu = select i1 %s, i%u %s, i%u %s\n", i,
                    irOperand(*this, inst.a).c_str(), inst.width,
                    irOperand(*this, inst.b).c_str(), inst.width,
                    irOperand(*this, inst.c).c_str());
      break;
    default:
      out += strfmt("  %%v%zu = %s i%u %s, %s\n", i, irOpName(inst.op),
                    inst.width, irOperand(*this, inst.a).c_str(),
                    irOperand(*this, inst.b).c_str());
      break;
    }
  }
  out += strfmt("  ret i%u %s\n}\n", retWidth,
                ret >= 0 ? irOperand(*this, ret).c_str() : "0");
  return out;
}

std::string IrProgram::describe() const { return lir(); }

IrEval evalIrReference(const IrProgram &program,
                       const std::vector<int64_t> &args) {
  std::vector<int64_t> values;
  values.reserve(program.numValues());
  for (unsigned i = 0; i < program.numArgs; ++i)
    values.push_back(i < args.size() ? args[i] : 0);
  for (const auto &[value, width] : program.consts) {
    (void)width;
    values.push_back(value);
  }
  IrEval result;
  auto trap = [&](std::string reason) {
    result.trapped = true;
    result.trapReason = std::move(reason);
    return result;
  };
  for (size_t i = 0; i < program.insts.size(); ++i) {
    const IrInst &inst = program.insts[i];
    unsigned w = inst.width;
    int64_t a = inst.a >= 0 ? values[static_cast<size_t>(inst.a)] : 0;
    int64_t b = inst.b >= 0 ? values[static_cast<size_t>(inst.b)] : 0;
    int64_t v = 0;
    switch (inst.op) {
    case IrInst::Op::Add:
      v = canonicalInt(static_cast<uint64_t>(a) + static_cast<uint64_t>(b),
                       w);
      break;
    case IrInst::Op::Sub:
      v = canonicalInt(static_cast<uint64_t>(a) - static_cast<uint64_t>(b),
                       w);
      break;
    case IrInst::Op::Mul:
      v = canonicalInt(static_cast<uint64_t>(a) * static_cast<uint64_t>(b),
                       w);
      break;
    case IrInst::Op::SDiv:
      if (b == 0)
        return trap(strfmt("sdiv by zero at %%v%zu", i));
      if (a == minSignedInt(w) && b == -1)
        return trap(strfmt("sdiv overflow at %%v%zu", i));
      v = a / b;
      break;
    case IrInst::Op::SRem:
      if (b == 0)
        return trap(strfmt("srem by zero at %%v%zu", i));
      if (a == minSignedInt(w) && b == -1)
        return trap(strfmt("srem overflow at %%v%zu", i));
      v = a % b;
      break;
    case IrInst::Op::UDiv:
      if (b == 0)
        return trap(strfmt("udiv by zero at %%v%zu", i));
      v = canonicalInt(truncBits(a, w) / truncBits(b, w), w);
      break;
    case IrInst::Op::URem:
      if (b == 0)
        return trap(strfmt("urem by zero at %%v%zu", i));
      v = canonicalInt(truncBits(a, w) % truncBits(b, w), w);
      break;
    case IrInst::Op::And:
      v = a & b;
      break;
    case IrInst::Op::Or:
      v = a | b;
      break;
    case IrInst::Op::Xor:
      v = a ^ b;
      break;
    case IrInst::Op::Shl:
      if (static_cast<uint64_t>(b) >= w)
        return trap(strfmt("shift out of range at %%v%zu", i));
      v = canonicalInt(truncBits(a, w) << b, w);
      break;
    case IrInst::Op::LShr:
      if (static_cast<uint64_t>(b) >= w)
        return trap(strfmt("shift out of range at %%v%zu", i));
      v = canonicalInt(truncBits(a, w) >> b, w);
      break;
    case IrInst::Op::AShr:
      if (static_cast<uint64_t>(b) >= w)
        return trap(strfmt("shift out of range at %%v%zu", i));
      v = a >> b;
      break;
    case IrInst::Op::Trunc:
      v = canonicalInt(static_cast<uint64_t>(a), w);
      break;
    case IrInst::Op::ZExt:
      v = static_cast<int64_t>(truncBits(a, program.widthOf(inst.a)));
      break;
    case IrInst::Op::SExt:
      v = a; // canonical values are already sign-extended
      break;
    case IrInst::Op::ICmp:
      v = a < b ? -1 : 0; // canonical i1 true
      break;
    case IrInst::Op::Select:
      v = a != 0 ? b : (inst.c >= 0 ? values[static_cast<size_t>(inst.c)]
                                    : 0);
      break;
    }
    values.push_back(v);
  }
  result.value = program.ret >= 0 ? values[static_cast<size_t>(program.ret)]
                                  : 0;
  return result;
}

// --- CallProgram (calls mode) ---

namespace {

/// Masked recursion argument: every template clamps to [0, 15] before
/// comparing/recursing, so termination does not depend on the input.
constexpr int64_t kRecMask = 15;

/// Name of function-table entry `index` in the emitted module.
std::string callFnName(const CallProgram &p, int index) {
  if (index == p.arrayIndex())
    return "arr_fill";
  if (index == p.recIndex())
    return "rec";
  return strfmt("h%d", index);
}

/// Argument count of function-table entry `index` (helpers take two
/// scalars; the special functions take one).
unsigned callFnArity(const CallProgram &p, int index) {
  return index < static_cast<int>(p.helpers.size()) ? 2u : 1u;
}

std::string callOperand(const CallFn &fn, unsigned numArgs, int value) {
  unsigned v = static_cast<unsigned>(value);
  if (v < numArgs)
    return strfmt("%%a%u", v);
  v -= numArgs;
  if (v < fn.consts.size())
    return strfmt("%lld", static_cast<long long>(fn.consts[v]));
  return strfmt("%%v%u", static_cast<unsigned>(v - fn.consts.size()));
}

const char *callOpName(CallOp::Kind kind) {
  switch (kind) {
  case CallOp::Kind::Add:
    return "add";
  case CallOp::Kind::Sub:
    return "sub";
  case CallOp::Kind::Mul:
    return "mul";
  case CallOp::Kind::And:
    return "and";
  case CallOp::Kind::Or:
    return "or";
  case CallOp::Kind::Xor:
    return "xor";
  case CallOp::Kind::ShlC:
    return "shl";
  case CallOp::Kind::Call:
    return "call";
  }
  return "?";
}

/// Renders one straight-line body (shared by helpers and the top).
std::string callFnBody(const CallProgram &p, const CallFn &fn,
                       unsigned numArgs) {
  std::string out = "entry:\n";
  for (size_t i = 0; i < fn.ops.size(); ++i) {
    const CallOp &op = fn.ops[i];
    if (op.kind == CallOp::Kind::Call) {
      std::string args =
          "i64 " + callOperand(fn, numArgs, op.a);
      if (callFnArity(p, op.callee) == 2)
        args += ", i64 " + callOperand(fn, numArgs, op.b);
      out += strfmt("  %%v%zu = call i64 @%s(%s)\n", i,
                    callFnName(p, op.callee).c_str(), args.c_str());
    } else if (op.kind == CallOp::Kind::ShlC) {
      out += strfmt("  %%v%zu = shl i64 %s, %u\n", i,
                    callOperand(fn, numArgs, op.a).c_str(), op.amount);
    } else {
      out += strfmt("  %%v%zu = %s i64 %s, %s\n", i, callOpName(op.kind),
                    callOperand(fn, numArgs, op.a).c_str(),
                    callOperand(fn, numArgs, op.b).c_str());
    }
  }
  out += strfmt("  ret i64 %s\n", callOperand(fn, numArgs, fn.ret).c_str());
  return out;
}

} // namespace

size_t CallProgram::size() const {
  size_t n = top.ops.size();
  for (const CallFn &fn : helpers)
    n += fn.ops.size();
  if (hasArrayHelper)
    ++n;
  if (hasRecursion)
    ++n;
  return n;
}

std::string CallProgram::lir() const {
  std::string out;
  for (size_t h = 0; h < helpers.size(); ++h) {
    out += strfmt("define i64 @h%zu(i64 %%a0, i64 %%a1)%s {\n", h,
                  helpers[h].noinline ? " #[noinline]" : "");
    out += callFnBody(*this, helpers[h], 2);
    out += "}\n\n";
  }
  if (hasArrayHelper) {
    // Fill a local array from affine functions of the argument, read it
    // back, xor-combine. Stays function-local: the pointer never escapes.
    out += "define i64 @arr_fill(i64 %a0) {\nentry:\n";
    out += "  %buf = alloca [8 x i64]\n";
    for (int k = 0; k < 8; ++k) {
      out += strfmt("  %%m%d = mul i64 %%a0, %lld\n", k,
                    static_cast<long long>(arrCoef[k]));
      out += strfmt("  %%s%d = add i64 %%m%d, %lld\n", k, k,
                    static_cast<long long>(arrAdd[k]));
      out += strfmt("  %%p%d = getelementptr [8 x i64], [8 x i64]* %%buf, "
                    "i64 0, i64 %d\n",
                    k, k);
      out += strfmt("  store i64 %%s%d, i64* %%p%d\n", k, k);
    }
    for (int k = 0; k < 8; ++k)
      out += strfmt("  %%l%d = load i64, i64* %%p%d\n", k, k);
    out += "  %x1 = xor i64 %l0, %l1\n";
    for (int k = 2; k < 8; ++k)
      out += strfmt("  %%x%d = xor i64 %%x%d, %%l%d\n", k, k - 1, k);
    out += "  ret i64 %x7\n}\n\n";
  }
  if (hasRecursion) {
    out += "define i64 @rec(i64 %a0) #[mha.rec_depth=24] {\nentry:\n";
    out += strfmt("  %%n = and i64 %%a0, %lld\n",
                  static_cast<long long>(kRecMask));
    out += "  %cmp = icmp sle i64 %n, 1\n";
    out += "  br i1 %cmp, label %base, label %step\nbase:\n";
    out += strfmt("  ret i64 %lld\nstep:\n",
                  static_cast<long long>(recBase));
    out += "  %n1 = sub i64 %n, 1\n";
    out += "  %r1 = call i64 @rec(i64 %n1)\n";
    switch (recKind) {
    case RecKind::Factorial:
      out += "  %v = mul i64 %n, %r1\n";
      break;
    case RecKind::Sum:
      out += "  %v = add i64 %n, %r1\n";
      break;
    case RecKind::Fib:
      out += "  %n2 = sub i64 %n, 2\n";
      out += "  %r2 = call i64 @rec(i64 %n2)\n";
      out += "  %v = add i64 %r1, %r2\n";
      break;
    }
    out += "  ret i64 %v\n}\n\n";
  }
  out += "define i64 @fuzz_calls(";
  for (unsigned i = 0; i < numArgs; ++i)
    out += strfmt("%si64 %%a%u", i ? ", " : "", i);
  out += ") {\n";
  out += callFnBody(*this, top, numArgs);
  out += "}\n";
  return out;
}

std::string CallProgram::describe() const { return lir(); }

namespace {

/// Evaluates a straight-line body; `callFn` resolves Call ops.
int64_t evalCallFn(const CallFn &fn, const std::vector<int64_t> &args,
                   const std::function<int64_t(int, int64_t, int64_t)> &call) {
  std::vector<int64_t> values(args);
  for (int64_t c : fn.consts)
    values.push_back(c);
  for (const CallOp &op : fn.ops) {
    int64_t a = op.a >= 0 ? values[static_cast<size_t>(op.a)] : 0;
    int64_t b = op.b >= 0 ? values[static_cast<size_t>(op.b)] : 0;
    int64_t v = 0;
    switch (op.kind) {
    case CallOp::Kind::Add:
      v = wrapAdd(a, b);
      break;
    case CallOp::Kind::Sub:
      v = wrapSub(a, b);
      break;
    case CallOp::Kind::Mul:
      v = wrapMul(a, b);
      break;
    case CallOp::Kind::And:
      v = a & b;
      break;
    case CallOp::Kind::Or:
      v = a | b;
      break;
    case CallOp::Kind::Xor:
      v = a ^ b;
      break;
    case CallOp::Kind::ShlC:
      v = static_cast<int64_t>(static_cast<uint64_t>(a) << op.amount);
      break;
    case CallOp::Kind::Call:
      v = call(op.callee, a, b);
      break;
    }
    values.push_back(v);
  }
  return fn.ret >= 0 ? values[static_cast<size_t>(fn.ret)] : 0;
}

int64_t evalArrayHelper(const CallProgram &p, int64_t x) {
  int64_t slots[8];
  for (int k = 0; k < 8; ++k)
    slots[k] = wrapAdd(wrapMul(x, p.arrCoef[k]), p.arrAdd[k]);
  int64_t acc = slots[0] ^ slots[1];
  for (int k = 2; k < 8; ++k)
    acc ^= slots[k];
  return acc;
}

int64_t evalRec(const CallProgram &p, int64_t arg) {
  int64_t n = arg & kRecMask;
  if (n <= 1)
    return p.recBase;
  switch (p.recKind) {
  case RecKind::Factorial:
    return wrapMul(n, evalRec(p, n - 1));
  case RecKind::Sum:
    return wrapAdd(n, evalRec(p, n - 1));
  case RecKind::Fib:
    return wrapAdd(evalRec(p, n - 1), evalRec(p, n - 2));
  }
  return 0;
}

int64_t evalCallTarget(const CallProgram &p, int callee, int64_t a,
                       int64_t b) {
  if (callee == p.arrayIndex())
    return evalArrayHelper(p, a);
  if (callee == p.recIndex())
    return evalRec(p, a);
  const CallFn &fn = p.helpers[static_cast<size_t>(callee)];
  return evalCallFn(fn, {a, b}, [&](int c, int64_t x, int64_t y) {
    return evalCallTarget(p, c, x, y);
  });
}

} // namespace

int64_t evalCallsReference(const CallProgram &program,
                           const std::vector<int64_t> &args) {
  std::vector<int64_t> padded(args);
  padded.resize(program.numArgs, 0);
  return evalCallFn(program.top, padded,
                    [&](int c, int64_t x, int64_t y) {
                      return evalCallTarget(program, c, x, y);
                    });
}

// --- ProgramGen ---

ProgramGen::ProgramGen(uint64_t seed, GenOptions options)
    : seed_(seed), options_(options) {}

namespace {

class KernelBuilder {
public:
  KernelBuilder(SplitMix64 &rng, Program &p, const GenOptions &opts)
      : rng_(rng), p_(p), opts_(opts) {}

  int genF(int depth) {
    unsigned roll = static_cast<unsigned>(rng_.below(100));
    if (depth <= 0) {
      if (roll < 35)
        return makeLoadA();
      if (roll < 55)
        return makeF(FExpr::Kind::LoadOut);
      if (roll < 80)
        return makeConstF();
      return makeFromInt(0);
    }
    if (roll < 15)
      return makeLoadA();
    if (roll < 23)
      return makeF(FExpr::Kind::LoadOut);
    if (roll < 30)
      return makeConstF();
    if (roll < 40)
      return makeFromInt(depth - 1);
    if (roll < 55)
      return makeBinF(FExpr::Kind::Add, depth);
    if (roll < 65)
      return makeBinF(FExpr::Kind::Sub, depth);
    if (roll < 80)
      return makeBinF(FExpr::Kind::Mul, depth);
    if (roll < 88)
      return makeBinF(FExpr::Kind::Div, depth);
    if (roll < 94)
      return makeUnF(FExpr::Kind::Fabs, depth);
    return makeUnF(FExpr::Kind::Sqrt, depth);
  }

  /// Integer tree guaranteed to contain at least one induction variable
  /// (used for every binop's left operand; see the file header on why
  /// const⊗const must not reach the canonicalizer).
  int genIWithIv(int depth) {
    if (depth <= 0 || rng_.below(100) < 40)
      return makeIv();
    unsigned roll = static_cast<unsigned>(rng_.below(100));
    IExpr e;
    if (roll < 30)
      e.kind = IExpr::Kind::Add;
    else if (roll < 50)
      e.kind = IExpr::Kind::Sub;
    else if (roll < 75)
      e.kind = IExpr::Kind::Mul;
    else if (roll < 88)
      e.kind = IExpr::Kind::DivC;
    else
      e.kind = IExpr::Kind::RemC;
    e.lhs = genIWithIv(depth - 1);
    if (e.kind == IExpr::Kind::DivC || e.kind == IExpr::Kind::RemC)
      e.cst = kDivisorPool[rng_.below(std::size(kDivisorPool))];
    else
      e.rhs = genI(depth - 1);
    p_.ipool.push_back(e);
    return static_cast<int>(p_.ipool.size() - 1);
  }

  int genI(int depth) {
    if (depth <= 0 || rng_.below(100) < 45) {
      if (rng_.below(100) < 55)
        return makeIv();
      IExpr e;
      e.kind = IExpr::Kind::Const;
      e.cst = kIntConstPool[rng_.below(std::size(kIntConstPool))];
      p_.ipool.push_back(e);
      return static_cast<int>(p_.ipool.size() - 1);
    }
    return genIWithIv(depth);
  }

private:
  int makeF(FExpr::Kind kind) {
    FExpr e;
    e.kind = kind;
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeConstF() {
    FExpr e;
    e.kind = FExpr::Kind::ConstF;
    e.cst = kFloatConstPool[rng_.below(std::size(kFloatConstPool))];
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeLoadA() {
    FExpr e;
    e.kind = FExpr::Kind::LoadA;
    size_t depth = p_.loops.size();
    e.rowCoef.resize(depth);
    e.colCoef.resize(depth);
    for (size_t l = 0; l < depth; ++l) {
      e.rowCoef[l] = static_cast<int64_t>(rng_.below(3));
      e.colCoef[l] = static_cast<int64_t>(rng_.below(3));
    }
    e.rowCst = static_cast<int64_t>(rng_.below(3));
    e.colCst = static_cast<int64_t>(rng_.below(3));
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeFromInt(int depth) {
    FExpr e;
    e.kind = FExpr::Kind::FromInt;
    e.iexpr = genI(depth);
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeBinF(FExpr::Kind kind, int depth) {
    FExpr e;
    e.kind = kind;
    e.lhs = genF(depth - 1);
    e.rhs = genF(depth - 1);
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeUnF(FExpr::Kind kind, int depth) {
    FExpr e;
    e.kind = kind;
    e.lhs = genF(depth - 1);
    p_.fpool.push_back(e);
    return static_cast<int>(p_.fpool.size() - 1);
  }

  int makeIv() {
    IExpr e;
    e.kind = IExpr::Kind::IV;
    e.iv = static_cast<int>(rng_.below(p_.loops.size()));
    p_.ipool.push_back(e);
    return static_cast<int>(p_.ipool.size() - 1);
  }

  SplitMix64 &rng_;
  Program &p_;
  const GenOptions &opts_;
};

} // namespace

Program ProgramGen::genKernel() {
  SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ull + 0x6b65726e656cull);
  Program p;
  p.seed = seed_;
  size_t depth = 1 + rng.below(static_cast<uint64_t>(options_.maxLoopDepth));
  for (size_t l = 0; l < depth; ++l) {
    LoopSpec loop;
    loop.lb = static_cast<int64_t>(rng.below(3));
    loop.ub = loop.lb + 2 + static_cast<int64_t>(rng.below(5));
    loop.step = 1 + static_cast<int64_t>(rng.below(2));
    p.loops.push_back(loop);
  }
  KernelBuilder builder(rng, p, options_);
  size_t numStmts = 1 + rng.below(static_cast<uint64_t>(options_.maxStmts));
  for (size_t s = 0; s < numStmts; ++s) {
    Stmt stmt;
    stmt.root = builder.genF(options_.maxExprDepth);
    p.stmts.push_back(stmt);
  }
  p.finalizeShapes();
  return p;
}

IrProgram ProgramGen::genIr() {
  SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ull + 0x6972ull);
  IrProgram p;
  p.seed = seed_;
  p.numArgs = 3;

  static const unsigned kWidths[] = {8, 16, 32, 64};
  size_t numConsts = 4 + rng.below(5);
  for (size_t i = 0; i < numConsts; ++i) {
    unsigned w = kWidths[rng.below(std::size(kWidths))];
    int64_t raw;
    unsigned roll = static_cast<unsigned>(rng.below(100));
    if (roll < 30) {
      raw = static_cast<int64_t>(rng.below(8)); // small: shift amounts
    } else if (roll < 55) {
      static const int64_t pool[] = {0,  1,  -1,   2,    3,   7,
                                     -2, 13, -128, 0x55, 255, -4096};
      raw = pool[rng.below(std::size(pool))];
    } else if (roll < 75) {
      raw = minSignedInt(w);
    } else if (roll < 90) {
      raw = maxSignedInt(w);
    } else {
      raw = static_cast<int64_t>(rng.next());
    }
    p.consts.push_back({canonicalInt(static_cast<uint64_t>(raw), w), w});
  }

  auto numValues = [&] { return static_cast<int>(p.numValues()); };
  // Values usable as generic operands (everything except i1 results).
  auto pickOperand = [&](unsigned width) -> int {
    std::vector<int> candidates;
    for (int v = 0; v < numValues(); ++v)
      if (p.widthOf(v) == width)
        candidates.push_back(v);
    if (candidates.empty())
      return -1;
    return candidates[rng.below(candidates.size())];
  };
  auto pickAnyNonI1 = [&]() -> int {
    std::vector<int> candidates;
    for (int v = 0; v < numValues(); ++v)
      if (p.widthOf(v) != 1)
        candidates.push_back(v);
    return candidates[rng.below(candidates.size())];
  };

  size_t numInsts =
      4 + rng.below(static_cast<uint64_t>(options_.maxIrInsts - 3));
  for (size_t i = 0; i < numInsts; ++i) {
    IrInst inst;
    unsigned roll = static_cast<unsigned>(rng.below(100));
    if (roll < 55) {
      // Arithmetic/bitwise binop on a shared width.
      static const IrInst::Op kBinops[] = {
          IrInst::Op::Add,  IrInst::Op::Sub,  IrInst::Op::Mul,
          IrInst::Op::SDiv, IrInst::Op::UDiv, IrInst::Op::SRem,
          IrInst::Op::URem, IrInst::Op::And,  IrInst::Op::Or,
          IrInst::Op::Xor};
      inst.op = kBinops[rng.below(std::size(kBinops))];
      inst.a = pickAnyNonI1();
      inst.width = p.widthOf(inst.a);
      inst.b = pickOperand(inst.width);
    } else if (roll < 75) {
      static const IrInst::Op kShifts[] = {IrInst::Op::Shl, IrInst::Op::LShr,
                                           IrInst::Op::AShr};
      inst.op = kShifts[rng.below(std::size(kShifts))];
      inst.a = pickAnyNonI1();
      inst.width = p.widthOf(inst.a);
      // Bias toward in-range constant amounts so most programs compute
      // values instead of trapping immediately (out-of-range amounts stay
      // reachable through the other operand picks).
      int amount = -1;
      if (rng.below(100) < 70) {
        std::vector<int> inRange;
        for (unsigned c = 0; c < p.consts.size(); ++c)
          if (p.consts[c].second == inst.width && p.consts[c].first >= 0 &&
              p.consts[c].first < static_cast<int64_t>(inst.width))
            inRange.push_back(static_cast<int>(p.numArgs + c));
        if (!inRange.empty())
          amount = inRange[rng.below(inRange.size())];
      }
      inst.b = amount >= 0 ? amount : pickOperand(inst.width);
    } else if (roll < 85) {
      // Width cast. Trunc targets stay >= 8: i1 is reserved for icmp
      // results feeding selects (an i1 operand in arithmetic would need
      // its own canonicalization story in every backend).
      if (rng.below(2) == 0) {
        inst.op = IrInst::Op::Trunc;
        static const unsigned kNarrow[] = {8, 16, 32};
        inst.width = kNarrow[rng.below(std::size(kNarrow))];
        std::vector<int> wider;
        for (int v = 0; v < numValues(); ++v)
          if (p.widthOf(v) > inst.width)
            wider.push_back(v);
        inst.a = wider[rng.below(wider.size())];
      } else {
        inst.op = rng.below(2) ? IrInst::Op::SExt : IrInst::Op::ZExt;
        static const unsigned kWide[] = {16, 32, 64};
        inst.width = kWide[rng.below(std::size(kWide))];
        std::vector<int> narrower;
        for (int v = 0; v < numValues(); ++v)
          if (p.widthOf(v) < inst.width && p.widthOf(v) >= 8)
            narrower.push_back(v);
        if (narrower.empty()) {
          inst.op = IrInst::Op::Add; // no narrow value yet: plain binop
          inst.a = pickAnyNonI1();
          inst.width = p.widthOf(inst.a);
          inst.b = pickOperand(inst.width);
        } else {
          inst.a = narrower[rng.below(narrower.size())];
        }
      }
    } else if (roll < 93) {
      inst.op = IrInst::Op::ICmp;
      inst.a = pickAnyNonI1();
      inst.b = pickOperand(p.widthOf(inst.a));
      inst.width = 1;
    } else {
      // Select needs an existing i1 condition.
      std::vector<int> conds;
      for (int v = 0; v < numValues(); ++v)
        if (p.widthOf(v) == 1)
          conds.push_back(v);
      if (conds.empty()) {
        inst.op = IrInst::Op::ICmp;
        inst.a = pickAnyNonI1();
        inst.b = pickOperand(p.widthOf(inst.a));
        inst.width = 1;
      } else {
        inst.op = IrInst::Op::Select;
        inst.a = conds[rng.below(conds.size())];
        int picked = pickAnyNonI1();
        inst.width = p.widthOf(picked);
        inst.b = picked;
        inst.c = pickOperand(inst.width);
      }
    }
    p.insts.push_back(inst);
  }

  // Return the last non-i1 value so the tail of the program stays live.
  p.ret = -1;
  for (size_t i = p.insts.size(); i-- > 0;) {
    if (p.insts[i].width != 1) {
      p.ret = static_cast<int>(p.numArgs + p.consts.size() + i);
      break;
    }
  }
  if (p.ret < 0)
    p.ret = 0;

  size_t numSets = static_cast<size_t>(options_.irArgSets);
  for (size_t s = 0; s < numSets; ++s) {
    std::vector<int64_t> args;
    for (unsigned a = 0; a < p.numArgs; ++a) {
      unsigned roll = static_cast<unsigned>(rng.below(100));
      if (roll < 35) {
        static const int64_t pool[] = {0, 1, -1, 2, 7, -13, 255, -256};
        args.push_back(pool[rng.below(std::size(pool))]);
      } else if (roll < 50) {
        args.push_back(INT64_MIN);
      } else if (roll < 65) {
        args.push_back(INT64_MAX);
      } else {
        args.push_back(static_cast<int64_t>(rng.next()));
      }
    }
    p.argSets.push_back(std::move(args));
  }
  return p;
}

CallProgram ProgramGen::genCalls() {
  SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ull + 0x63616c6c73ull);
  CallProgram p;
  p.seed = seed_;
  p.numArgs = 3;

  // Constants restricted to wrap-safe values (every op is trap-free, so
  // any int64 works; the pool biases toward interesting bit patterns).
  auto pickConst = [&]() -> int64_t {
    unsigned roll = static_cast<unsigned>(rng.below(100));
    if (roll < 60)
      return kIntConstPool[rng.below(std::size(kIntConstPool))];
    return static_cast<int64_t>(rng.next());
  };

  // A straight-line body over `numArgs` arguments whose Call ops may
  // target function-table entries in [0, calleeLimit).
  auto genBody = [&](unsigned numArgs, int calleeLimit, unsigned callPct) {
    CallFn fn;
    size_t numConsts = 2 + rng.below(3);
    for (size_t c = 0; c < numConsts; ++c)
      fn.consts.push_back(pickConst());
    size_t numOps =
        3 + rng.below(static_cast<uint64_t>(options_.maxCallOps - 2));
    auto numValues = [&] {
      return static_cast<int>(numArgs + fn.consts.size() + fn.ops.size());
    };
    auto pickValue = [&] {
      return static_cast<int>(rng.below(static_cast<uint64_t>(numValues())));
    };
    for (size_t i = 0; i < numOps; ++i) {
      CallOp op;
      unsigned roll = static_cast<unsigned>(rng.below(100));
      if (calleeLimit > 0 && roll < callPct) {
        op.kind = CallOp::Kind::Call;
        op.callee = static_cast<int>(
            rng.below(static_cast<uint64_t>(calleeLimit)));
        op.a = pickValue();
        op.b = pickValue();
      } else if (roll < callPct + 10) {
        op.kind = CallOp::Kind::ShlC;
        op.a = pickValue();
        op.amount = static_cast<unsigned>(rng.below(8));
      } else {
        static const CallOp::Kind kBinops[] = {
            CallOp::Kind::Add, CallOp::Kind::Sub, CallOp::Kind::Mul,
            CallOp::Kind::And, CallOp::Kind::Or,  CallOp::Kind::Xor};
        op.kind = kBinops[rng.below(std::size(kBinops))];
        op.a = pickValue();
        op.b = pickValue();
      }
      fn.ops.push_back(op);
    }
    fn.ret = numValues() - 1; // last op keeps the whole tail live
    return fn;
  };

  size_t numHelpers =
      1 + rng.below(static_cast<uint64_t>(options_.maxCallHelpers));
  for (size_t h = 0; h < numHelpers; ++h) {
    CallFn fn = genBody(2, static_cast<int>(h), 20);
    fn.noinline = rng.below(100) < 30;
    p.helpers.push_back(std::move(fn));
  }

  p.hasArrayHelper = rng.below(100) < 50;
  if (p.hasArrayHelper)
    for (int k = 0; k < 8; ++k) {
      p.arrCoef[k] = pickConst();
      p.arrAdd[k] = pickConst();
    }

  p.hasRecursion = rng.below(100) < 75;
  if (p.hasRecursion) {
    static const RecKind kKinds[] = {RecKind::Factorial, RecKind::Sum,
                                     RecKind::Fib};
    p.recKind = kKinds[rng.below(std::size(kKinds))];
    p.recBase = 1 + static_cast<int64_t>(rng.below(7));
  }

  p.top = genBody(p.numArgs, p.numFunctions(), 35);
  // Guarantee the special functions are exercised: append one call to
  // each, then a combiner so the return depends on everything.
  int topValues = static_cast<int>(p.numArgs + p.top.consts.size() +
                                   p.top.ops.size());
  auto appendCall = [&](int callee) {
    CallOp op;
    op.kind = CallOp::Kind::Call;
    op.callee = callee;
    op.a = static_cast<int>(rng.below(static_cast<uint64_t>(topValues)));
    op.b = static_cast<int>(rng.below(static_cast<uint64_t>(topValues)));
    p.top.ops.push_back(op);
    ++topValues;
  };
  int beforeSpecials = topValues;
  if (p.hasArrayHelper)
    appendCall(p.arrayIndex());
  if (p.hasRecursion)
    appendCall(p.recIndex());
  for (int v = beforeSpecials; v < topValues; ++v) {
    CallOp fold;
    fold.kind = CallOp::Kind::Xor;
    fold.a = p.top.ret;
    fold.b = v;
    p.top.ops.push_back(fold);
    p.top.ret = topValues + (v - beforeSpecials);
  }
  topValues = static_cast<int>(p.numArgs + p.top.consts.size() +
                               p.top.ops.size());

  size_t numSets = static_cast<size_t>(options_.callArgSets);
  for (size_t s = 0; s < numSets; ++s) {
    std::vector<int64_t> args;
    for (unsigned a = 0; a < p.numArgs; ++a) {
      unsigned roll = static_cast<unsigned>(rng.below(100));
      if (roll < 40) {
        static const int64_t pool[] = {0, 1, -1, 2, 7, 15, -13, 255};
        args.push_back(pool[rng.below(std::size(pool))]);
      } else if (roll < 55) {
        args.push_back(INT64_MIN);
      } else if (roll < 70) {
        args.push_back(INT64_MAX);
      } else {
        args.push_back(static_cast<int64_t>(rng.next()));
      }
    }
    p.argSets.push_back(std::move(args));
  }
  return p;
}

} // namespace mha::fuzz
