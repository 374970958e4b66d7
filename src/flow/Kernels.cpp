#include "flow/Kernels.h"

#include "mir/Printer.h"
#include "mir/transforms/MirTransforms.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

namespace mha::flow {

namespace {

using mir::AffineMap;
using mir::ForOp;
using mir::FuncOp;
using mir::MContext;
using mir::OpBuilder;

constexpr int64_t N = 32; // default problem size

/// Identity-map affine load/store helpers.
mir::Value *loadAt(OpBuilder &b, mir::Value *mem,
                   std::vector<mir::Value *> ivs) {
  auto *mt = cast<mir::MemRefType>(mem->type());
  return b.affineLoad(mem, AffineMap::identity(b.context(), mt->rank()),
                      std::move(ivs));
}

void storeAt(OpBuilder &b, mir::Value *value, mir::Value *mem,
             std::vector<mir::Value *> ivs) {
  auto *mt = cast<mir::MemRefType>(mem->type());
  b.affineStore(value, mem, AffineMap::identity(b.context(), mt->rank()),
                std::move(ivs));
}

/// Load with per-dimension constant offsets: mem[iv0+off0][iv1+off1].
mir::Value *loadShifted(OpBuilder &b, mir::Value *mem,
                        std::vector<mir::Value *> ivs,
                        std::vector<int64_t> offsets) {
  MContext &ctx = b.context();
  std::vector<const mir::AffineExpr *> exprs;
  for (unsigned d = 0; d < ivs.size(); ++d)
    exprs.push_back(
        ctx.affineAdd(ctx.affineDim(d), ctx.affineConst(offsets[d])));
  AffineMap map(static_cast<unsigned>(ivs.size()), 0, std::move(exprs));
  return b.affineLoad(mem, map, std::move(ivs));
}

/// Applies innermost-loop directives from the config.
void markInner(ForOp loop, const KernelConfig &cfg) {
  if (!cfg.applyDirectives)
    return;
  if (cfg.pipelineII > 0)
    mir::setPipelineDirective(loop, cfg.pipelineII);
  if (cfg.unrollFactor > 1)
    mir::setUnrollDirective(loop, cfg.unrollFactor);
}

void markPartition(FuncOp fn, const KernelConfig &cfg, unsigned argIdx,
                   unsigned dim) {
  if (cfg.applyDirectives && cfg.partitionFactor > 1)
    mir::addArrayPartitionDirective(fn, argIdx, dim, cfg.partitionFactor,
                                    "cyclic");
}

void markDataflow(FuncOp fn, const KernelConfig &cfg) {
  if (cfg.applyDirectives && cfg.dataflow)
    fn.op->setAttr(mir::hlsattr::Dataflow,
                   fn.type()->context().unitAttr());
}

/// Starts a module with one function over f64 memref args of the given
/// shapes; returns builder positioned in the function body.
struct KernelScaffold {
  mir::OwnedModule module;
  FuncOp fn;

  KernelScaffold(MContext &ctx, const std::string &name,
                 const std::vector<std::vector<int64_t>> &shapes,
                 OpBuilder &builder)
      : module(OpBuilder::createModule()) {
    builder.setInsertPoint(module.get().body());
    std::vector<mir::Type *> inputs;
    for (const auto &shape : shapes)
      inputs.push_back(ctx.memrefTy(shape, ctx.f64()));
    fn = builder.createFunc(name, ctx.fnTy(inputs, {}));
    builder.setInsertPoint(fn.entryBlock());
  }

  void finish(OpBuilder &builder) {
    builder.setInsertPoint(fn.entryBlock());
    builder.createReturn();
  }
};

// ============================ gemm ============================

mir::OwnedModule buildGemm(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "gemm", {{N, N}, {N, N}, {N, N}}, b);
  mir::Value *A = s.fn.arg(0), *B = s.fn.arg(1), *C = s.fn.arg(2);
  markPartition(s.fn, cfg, 0, 1); // A by columns (k)
  markPartition(s.fn, cfg, 1, 0); // B by rows (k)

  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  ForOp jLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *i = iLoop.inductionVar(), *j = jLoop.inductionVar();
  storeAt(b, b.constantFloat(0.0, ctx.f64()), C, {i, j});
  ForOp kLoop = b.affineFor(0, N);
  markInner(kLoop, cfg);
  b.setInsertPointToLoopBody(kLoop);
  mir::Value *k = kLoop.inductionVar();
  mir::Value *a = loadAt(b, A, {i, k});
  mir::Value *bv = loadAt(b, B, {k, j});
  mir::Value *c = loadAt(b, C, {i, j});
  mir::Value *prod = b.binary(mir::ops::MulF, a, bv);
  storeAt(b, b.binary(mir::ops::AddF, c, prod), C, {i, j});
  s.finish(b);
  return std::move(s.module);
}

void refGemm(Buffers &buf) {
  auto &A = buf[0], &B = buf[1], &C = buf[2];
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j) {
      C[i * N + j] = 0.0;
      for (int64_t k = 0; k < N; ++k)
        C[i * N + j] = C[i * N + j] + A[i * N + k] * B[k * N + j];
    }
}

// ============================ 2mm ============================

mir::OwnedModule build2mm(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "mm2", {{N, N}, {N, N}, {N, N}, {N, N}}, b);
  mir::Value *A = s.fn.arg(0), *B = s.fn.arg(1), *C = s.fn.arg(2),
             *D = s.fn.arg(3);
  markPartition(s.fn, cfg, 0, 1);
  markPartition(s.fn, cfg, 1, 0);
  markDataflow(s.fn, cfg);
  mir::Value *tmp = b.memrefAlloc(ctx.memrefTy({N, N}, ctx.f64()));

  auto matmul = [&](mir::Value *X, mir::Value *Y, mir::Value *Z) {
    ForOp iLoop = b.affineFor(0, N);
    b.setInsertPointToLoopBody(iLoop);
    ForOp jLoop = b.affineFor(0, N);
    b.setInsertPointToLoopBody(jLoop);
    mir::Value *i = iLoop.inductionVar(), *j = jLoop.inductionVar();
    storeAt(b, b.constantFloat(0.0, ctx.f64()), Z, {i, j});
    ForOp kLoop = b.affineFor(0, N);
    markInner(kLoop, cfg);
    b.setInsertPointToLoopBody(kLoop);
    mir::Value *k = kLoop.inductionVar();
    mir::Value *x = loadAt(b, X, {i, k});
    mir::Value *y = loadAt(b, Y, {k, j});
    mir::Value *z = loadAt(b, Z, {i, j});
    storeAt(b, b.binary(mir::ops::AddF, z, b.binary(mir::ops::MulF, x, y)),
            Z, {i, j});
    b.setInsertPoint(s.fn.entryBlock());
  };
  matmul(A, B, tmp);
  matmul(tmp, C, D);
  s.finish(b);
  return std::move(s.module);
}

void ref2mm(Buffers &buf) {
  auto &A = buf[0], &B = buf[1], &C = buf[2], &D = buf[3];
  std::vector<double> tmp(N * N);
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j) {
      tmp[i * N + j] = 0.0;
      for (int64_t k = 0; k < N; ++k)
        tmp[i * N + j] += A[i * N + k] * B[k * N + j];
    }
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j) {
      D[i * N + j] = 0.0;
      for (int64_t k = 0; k < N; ++k)
        D[i * N + j] += tmp[i * N + k] * C[k * N + j];
    }
}

// ============================ atax ============================

mir::OwnedModule buildAtax(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "atax", {{N, N}, {N}, {N}}, b);
  mir::Value *A = s.fn.arg(0), *x = s.fn.arg(1), *y = s.fn.arg(2);
  markPartition(s.fn, cfg, 0, 1);
  markDataflow(s.fn, cfg);
  mir::Value *tmp = b.memrefAlloc(ctx.memrefTy({N}, ctx.f64()));

  // y = 0
  ForOp zLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(zLoop);
  storeAt(b, b.constantFloat(0.0, ctx.f64()), y, {zLoop.inductionVar()});
  b.setInsertPoint(s.fn.entryBlock());

  // tmp[i] = A[i,:] . x ; y += A[i,:]^T * tmp[i]
  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  mir::Value *i = iLoop.inductionVar();
  storeAt(b, b.constantFloat(0.0, ctx.f64()), tmp, {i});
  ForOp jLoop = b.affineFor(0, N);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *j = jLoop.inductionVar();
  mir::Value *t = loadAt(b, tmp, {i});
  mir::Value *prod = b.binary(mir::ops::MulF, loadAt(b, A, {i, j}),
                              loadAt(b, x, {j}));
  storeAt(b, b.binary(mir::ops::AddF, t, prod), tmp, {i});
  b.setInsertPointToLoopBody(iLoop);

  ForOp j2Loop = b.affineFor(0, N);
  markInner(j2Loop, cfg);
  b.setInsertPointToLoopBody(j2Loop);
  mir::Value *j2 = j2Loop.inductionVar();
  mir::Value *yv = loadAt(b, y, {j2});
  mir::Value *prod2 = b.binary(mir::ops::MulF, loadAt(b, A, {i, j2}),
                               loadAt(b, tmp, {i}));
  storeAt(b, b.binary(mir::ops::AddF, yv, prod2), y, {j2});
  s.finish(b);
  return std::move(s.module);
}

void refAtax(Buffers &buf) {
  auto &A = buf[0], &x = buf[1], &y = buf[2];
  std::vector<double> tmp(N);
  for (int64_t j = 0; j < N; ++j)
    y[j] = 0.0;
  for (int64_t i = 0; i < N; ++i) {
    tmp[i] = 0.0;
    for (int64_t j = 0; j < N; ++j)
      tmp[i] = tmp[i] + A[i * N + j] * x[j];
    for (int64_t j = 0; j < N; ++j)
      y[j] = y[j] + A[i * N + j] * tmp[i];
  }
}

// ============================ bicg ============================

mir::OwnedModule buildBicg(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "bicg", {{N, N}, {N}, {N}, {N}, {N}}, b);
  mir::Value *A = s.fn.arg(0), *p = s.fn.arg(1), *r = s.fn.arg(2),
             *sv = s.fn.arg(3), *q = s.fn.arg(4);
  markPartition(s.fn, cfg, 0, 1);

  ForOp zLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(zLoop);
  storeAt(b, b.constantFloat(0.0, ctx.f64()), sv, {zLoop.inductionVar()});
  b.setInsertPoint(s.fn.entryBlock());

  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  mir::Value *i = iLoop.inductionVar();
  storeAt(b, b.constantFloat(0.0, ctx.f64()), q, {i});
  ForOp jLoop = b.affineFor(0, N);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *j = jLoop.inductionVar();
  mir::Value *aij = loadAt(b, A, {i, j});
  // s[j] += r[i] * A[i][j]
  mir::Value *sj = loadAt(b, sv, {j});
  mir::Value *ri = loadAt(b, r, {i});
  storeAt(b, b.binary(mir::ops::AddF, sj, b.binary(mir::ops::MulF, ri, aij)),
          sv, {j});
  // q[i] += A[i][j] * p[j]
  mir::Value *qi = loadAt(b, q, {i});
  mir::Value *pj = loadAt(b, p, {j});
  storeAt(b, b.binary(mir::ops::AddF, qi, b.binary(mir::ops::MulF, aij, pj)),
          q, {i});
  s.finish(b);
  return std::move(s.module);
}

void refBicg(Buffers &buf) {
  auto &A = buf[0], &p = buf[1], &r = buf[2], &sv = buf[3], &q = buf[4];
  for (int64_t j = 0; j < N; ++j)
    sv[j] = 0.0;
  for (int64_t i = 0; i < N; ++i) {
    q[i] = 0.0;
    for (int64_t j = 0; j < N; ++j) {
      sv[j] = sv[j] + r[i] * A[i * N + j];
      q[i] = q[i] + A[i * N + j] * p[j];
    }
  }
}

// ============================ gesummv ============================

mir::OwnedModule buildGesummv(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "gesummv", {{N, N}, {N, N}, {N}, {N}}, b);
  mir::Value *A = s.fn.arg(0), *B = s.fn.arg(1), *x = s.fn.arg(2),
             *y = s.fn.arg(3);
  markPartition(s.fn, cfg, 0, 1);
  markPartition(s.fn, cfg, 1, 1);

  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  mir::Value *i = iLoop.inductionVar();
  storeAt(b, b.constantFloat(0.0, ctx.f64()), y, {i});
  ForOp jLoop = b.affineFor(0, N);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *j = jLoop.inductionVar();
  mir::Value *alpha = b.constantFloat(1.5, ctx.f64());
  mir::Value *beta = b.constantFloat(1.2, ctx.f64());
  mir::Value *xj = loadAt(b, x, {j});
  mir::Value *term1 = b.binary(
      mir::ops::MulF, b.binary(mir::ops::MulF, alpha, loadAt(b, A, {i, j})),
      xj);
  mir::Value *term2 = b.binary(
      mir::ops::MulF, b.binary(mir::ops::MulF, beta, loadAt(b, B, {i, j})),
      xj);
  mir::Value *yi = loadAt(b, y, {i});
  storeAt(b,
          b.binary(mir::ops::AddF, yi, b.binary(mir::ops::AddF, term1, term2)),
          y, {i});
  s.finish(b);
  return std::move(s.module);
}

void refGesummv(Buffers &buf) {
  auto &A = buf[0], &B = buf[1], &x = buf[2], &y = buf[3];
  for (int64_t i = 0; i < N; ++i) {
    y[i] = 0.0;
    for (int64_t j = 0; j < N; ++j) {
      double term1 = (1.5 * A[i * N + j]) * x[j];
      double term2 = (1.2 * B[i * N + j]) * x[j];
      y[i] = y[i] + (term1 + term2);
    }
  }
}

// ============================ mvt ============================

mir::OwnedModule buildMvt(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "mvt", {{N, N}, {N}, {N}, {N}, {N}}, b);
  mir::Value *A = s.fn.arg(0), *x1 = s.fn.arg(1), *x2 = s.fn.arg(2),
             *y1 = s.fn.arg(3), *y2 = s.fn.arg(4);
  markPartition(s.fn, cfg, 0, 1);
  markDataflow(s.fn, cfg);

  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  mir::Value *i = iLoop.inductionVar();
  ForOp jLoop = b.affineFor(0, N);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *j = jLoop.inductionVar();
  mir::Value *v1 = loadAt(b, x1, {i});
  storeAt(b,
          b.binary(mir::ops::AddF, v1,
                   b.binary(mir::ops::MulF, loadAt(b, A, {i, j}),
                            loadAt(b, y1, {j}))),
          x1, {i});
  b.setInsertPoint(s.fn.entryBlock());

  ForOp i2Loop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(i2Loop);
  mir::Value *i2 = i2Loop.inductionVar();
  ForOp j2Loop = b.affineFor(0, N);
  markInner(j2Loop, cfg);
  b.setInsertPointToLoopBody(j2Loop);
  mir::Value *j2 = j2Loop.inductionVar();
  mir::Value *v2 = loadAt(b, x2, {i2});
  storeAt(b,
          b.binary(mir::ops::AddF, v2,
                   b.binary(mir::ops::MulF, loadAt(b, A, {j2, i2}),
                            loadAt(b, y2, {j2}))),
          x2, {i2});
  s.finish(b);
  return std::move(s.module);
}

void refMvt(Buffers &buf) {
  auto &A = buf[0], &x1 = buf[1], &x2 = buf[2], &y1 = buf[3], &y2 = buf[4];
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j)
      x1[i] = x1[i] + A[i * N + j] * y1[j];
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j)
      x2[i] = x2[i] + A[j * N + i] * y2[j];
}

// ============================ syrk ============================

mir::OwnedModule buildSyrk(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "syrk", {{N, N}, {N, N}}, b);
  mir::Value *A = s.fn.arg(0), *C = s.fn.arg(1);
  markPartition(s.fn, cfg, 0, 1);

  ForOp iLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(iLoop);
  ForOp jLoop = b.affineFor(0, N);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *i = iLoop.inductionVar(), *j = jLoop.inductionVar();
  mir::Value *beta = b.constantFloat(1.2, ctx.f64());
  storeAt(b, b.binary(mir::ops::MulF, loadAt(b, C, {i, j}), beta), C, {i, j});
  ForOp kLoop = b.affineFor(0, N);
  markInner(kLoop, cfg);
  b.setInsertPointToLoopBody(kLoop);
  mir::Value *k = kLoop.inductionVar();
  mir::Value *prod = b.binary(mir::ops::MulF, loadAt(b, A, {i, k}),
                              loadAt(b, A, {j, k}));
  storeAt(b, b.binary(mir::ops::AddF, loadAt(b, C, {i, j}), prod), C, {i, j});
  s.finish(b);
  return std::move(s.module);
}

void refSyrk(Buffers &buf) {
  auto &A = buf[0], &C = buf[1];
  for (int64_t i = 0; i < N; ++i)
    for (int64_t j = 0; j < N; ++j) {
      C[i * N + j] = C[i * N + j] * 1.2;
      for (int64_t k = 0; k < N; ++k)
        C[i * N + j] = C[i * N + j] + A[i * N + k] * A[j * N + k];
    }
}

// ============================ fir ============================

constexpr int64_t FIR_N = 64;
constexpr int64_t FIR_T = 16;

mir::OwnedModule buildFir(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "fir", {{FIR_N + FIR_T}, {FIR_T}, {FIR_N}}, b);
  mir::Value *x = s.fn.arg(0), *h = s.fn.arg(1), *y = s.fn.arg(2);
  markPartition(s.fn, cfg, 1, 0);

  ForOp iLoop = b.affineFor(0, FIR_N);
  b.setInsertPointToLoopBody(iLoop);
  mir::Value *i = iLoop.inductionVar();
  storeAt(b, b.constantFloat(0.0, ctx.f64()), y, {i});
  ForOp kLoop = b.affineFor(0, FIR_T);
  markInner(kLoop, cfg);
  b.setInsertPointToLoopBody(kLoop);
  mir::Value *k = kLoop.inductionVar();
  // x[i + k]
  MContext &c = ctx;
  AffineMap sumMap(2, 0, {c.affineAdd(c.affineDim(0), c.affineDim(1))});
  mir::Value *xv = b.affineLoad(x, sumMap, {i, k});
  mir::Value *prod = b.binary(mir::ops::MulF, loadAt(b, h, {k}), xv);
  storeAt(b, b.binary(mir::ops::AddF, loadAt(b, y, {i}), prod), y, {i});
  s.finish(b);
  return std::move(s.module);
}

void refFir(Buffers &buf) {
  auto &x = buf[0], &h = buf[1], &y = buf[2];
  for (int64_t i = 0; i < FIR_N; ++i) {
    y[i] = 0.0;
    for (int64_t k = 0; k < FIR_T; ++k)
      y[i] = y[i] + h[k] * x[i + k];
  }
}

// ============================ conv2d ============================

constexpr int64_t CONV_OUT = 32;
constexpr int64_t CONV_IN = CONV_OUT + 2;

mir::OwnedModule buildConv2d(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "conv2d",
                   {{CONV_IN, CONV_IN}, {3, 3}, {CONV_OUT, CONV_OUT}}, b);
  mir::Value *in = s.fn.arg(0), *w = s.fn.arg(1), *out = s.fn.arg(2);
  markPartition(s.fn, cfg, 0, 1);
  markPartition(s.fn, cfg, 1, 1); // the 3x3 weights are the port hotspot

  ForOp iLoop = b.affineFor(0, CONV_OUT);
  b.setInsertPointToLoopBody(iLoop);
  ForOp jLoop = b.affineFor(0, CONV_OUT);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *i = iLoop.inductionVar(), *j = jLoop.inductionVar();
  // Fully unrolled 3x3 stencil (ScaleHLS-style small-kernel unrolling).
  mir::Value *acc = b.constantFloat(0.0, ctx.f64());
  for (int64_t di = 0; di < 3; ++di) {
    for (int64_t dj = 0; dj < 3; ++dj) {
      mir::Value *inV = loadShifted(b, in, {i, j}, {di, dj});
      // w[di][dj]: constant subscripts.
      MContext &c = ctx;
      AffineMap wMap(0, 0, {c.affineConst(di), c.affineConst(dj)});
      mir::Value *wv = b.affineLoad(w, wMap, {});
      acc = b.binary(mir::ops::AddF, acc, b.binary(mir::ops::MulF, wv, inV));
    }
  }
  storeAt(b, acc, out, {i, j});
  s.finish(b);
  return std::move(s.module);
}

void refConv2d(Buffers &buf) {
  auto &in = buf[0], &w = buf[1], &out = buf[2];
  for (int64_t i = 0; i < CONV_OUT; ++i)
    for (int64_t j = 0; j < CONV_OUT; ++j) {
      double acc = 0.0;
      for (int64_t di = 0; di < 3; ++di)
        for (int64_t dj = 0; dj < 3; ++dj)
          acc = acc + w[di * 3 + dj] * in[(i + di) * CONV_IN + (j + dj)];
      out[i * CONV_OUT + j] = acc;
    }
}

// ============================ rmsnorm ============================

constexpr int64_t RMS_N = 64;

mir::OwnedModule buildRmsnorm(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "rmsnorm", {{RMS_N}, {RMS_N}}, b);
  mir::Value *x = s.fn.arg(0), *y = s.fn.arg(1);
  markPartition(s.fn, cfg, 0, 0);
  markDataflow(s.fn, cfg);

  // s2[0] = sum x[i]^2
  mir::Value *acc = b.memrefAlloc(ctx.memrefTy({1}, ctx.f64()));
  AffineMap zeroMap(0, 0, {ctx.affineConst(0)});
  b.affineStore(b.constantFloat(0.0, ctx.f64()), acc, zeroMap, {});
  ForOp sumLoop = b.affineFor(0, RMS_N);
  markInner(sumLoop, cfg);
  b.setInsertPointToLoopBody(sumLoop);
  mir::Value *i = sumLoop.inductionVar();
  mir::Value *xi = loadAt(b, x, {i});
  mir::Value *sq = b.binary(mir::ops::MulF, xi, xi);
  b.affineStore(b.binary(mir::ops::AddF,
                         b.affineLoad(acc, zeroMap, {}), sq),
                acc, zeroMap, {});
  b.setInsertPoint(s.fn.entryBlock());

  // scale = 1 / sqrt(s2/N + eps); y[i] = x[i] * scale
  mir::Value *total = b.affineLoad(acc, zeroMap, {});
  mir::Value *mean = b.binary(mir::ops::DivF, total,
                              b.constantFloat(double(RMS_N), ctx.f64()));
  mir::Value *eps = b.constantFloat(1e-5, ctx.f64());
  mir::Value *root =
      b.mathOp(mir::ops::MathSqrt, b.binary(mir::ops::AddF, mean, eps));
  mir::Value *scale =
      b.binary(mir::ops::DivF, b.constantFloat(1.0, ctx.f64()), root);
  ForOp outLoop = b.affineFor(0, RMS_N);
  markInner(outLoop, cfg);
  b.setInsertPointToLoopBody(outLoop);
  mir::Value *j = outLoop.inductionVar();
  storeAt(b, b.binary(mir::ops::MulF, loadAt(b, x, {j}), scale), y, {j});
  s.finish(b);
  return std::move(s.module);
}

void refRmsnorm(Buffers &buf) {
  auto &x = buf[0], &y = buf[1];
  double s2 = 0.0;
  for (int64_t i = 0; i < RMS_N; ++i)
    s2 = s2 + x[i] * x[i];
  double scale = 1.0 / std::sqrt(s2 / double(RMS_N) + 1e-5);
  for (int64_t j = 0; j < RMS_N; ++j)
    y[j] = x[j] * scale;
}

// ============================ jacobi2d ============================

constexpr int64_t JAC = 34;

mir::OwnedModule buildJacobi2d(MContext &ctx, const KernelConfig &cfg) {
  OpBuilder b(ctx);
  KernelScaffold s(ctx, "jacobi2d", {{JAC, JAC}, {JAC, JAC}}, b);
  mir::Value *in = s.fn.arg(0), *out = s.fn.arg(1);
  markPartition(s.fn, cfg, 0, 1);

  ForOp iLoop = b.affineFor(1, JAC - 1);
  b.setInsertPointToLoopBody(iLoop);
  ForOp jLoop = b.affineFor(1, JAC - 1);
  markInner(jLoop, cfg);
  b.setInsertPointToLoopBody(jLoop);
  mir::Value *i = iLoop.inductionVar(), *j = jLoop.inductionVar();
  mir::Value *sum = loadShifted(b, in, {i, j}, {0, 0});
  sum = b.binary(mir::ops::AddF, sum, loadShifted(b, in, {i, j}, {-1, 0}));
  sum = b.binary(mir::ops::AddF, sum, loadShifted(b, in, {i, j}, {1, 0}));
  sum = b.binary(mir::ops::AddF, sum, loadShifted(b, in, {i, j}, {0, -1}));
  sum = b.binary(mir::ops::AddF, sum, loadShifted(b, in, {i, j}, {0, 1}));
  storeAt(b, b.binary(mir::ops::MulF, b.constantFloat(0.2, ctx.f64()), sum),
          out, {i, j});
  s.finish(b);
  return std::move(s.module);
}

void refJacobi2d(Buffers &buf) {
  auto &in = buf[0], &out = buf[1];
  for (int64_t i = 1; i < JAC - 1; ++i)
    for (int64_t j = 1; j < JAC - 1; ++j) {
      double sum = in[i * JAC + j];
      sum = sum + in[(i - 1) * JAC + j];
      sum = sum + in[(i + 1) * JAC + j];
      sum = sum + in[i * JAC + (j - 1)];
      sum = sum + in[i * JAC + (j + 1)];
      out[i * JAC + j] = 0.2 * sum;
    }
}

} // namespace

const std::vector<KernelSpec> &allKernels() {
  static const std::vector<KernelSpec> kernels = [] {
    std::vector<KernelSpec> out;
    out.push_back({"gemm", "dense matrix multiply C = A*B",
                   {{N, N}, {N, N}, {N, N}}, {2}, buildGemm, refGemm});
    out.push_back({"mm2", "two chained matrix multiplies D = (A*B)*C",
                   {{N, N}, {N, N}, {N, N}, {N, N}}, {3}, build2mm, ref2mm});
    out.push_back({"atax", "y = A^T (A x)", {{N, N}, {N}, {N}}, {2},
                   buildAtax, refAtax});
    out.push_back({"bicg", "BiCG sub-kernel: s = A^T r, q = A p",
                   {{N, N}, {N}, {N}, {N}, {N}}, {3, 4}, buildBicg, refBicg});
    out.push_back({"gesummv", "y = alpha*A*x + beta*B*x",
                   {{N, N}, {N, N}, {N}, {N}}, {3}, buildGesummv,
                   refGesummv});
    out.push_back({"mvt", "x1 += A*y1; x2 += A^T*y2",
                   {{N, N}, {N}, {N}, {N}, {N}}, {1, 2}, buildMvt, refMvt});
    out.push_back({"syrk", "C = beta*C + A*A^T", {{N, N}, {N, N}}, {1},
                   buildSyrk, refSyrk});
    out.push_back({"fir", "64-tap output, 16-tap FIR filter",
                   {{FIR_N + FIR_T}, {FIR_T}, {FIR_N}}, {2}, buildFir,
                   refFir});
    out.push_back({"conv2d", "3x3 convolution, 32x32 output",
                   {{CONV_IN, CONV_IN}, {3, 3}, {CONV_OUT, CONV_OUT}}, {2},
                   buildConv2d, refConv2d});
    out.push_back({"jacobi2d", "5-point Jacobi stencil sweep",
                   {{JAC, JAC}, {JAC, JAC}}, {1}, buildJacobi2d,
                   refJacobi2d});
    out.push_back({"rmsnorm", "RMS normalization (uses the sqrt math core)",
                   {{RMS_N}, {RMS_N}}, {1}, buildRmsnorm, refRmsnorm});
    return out;
  }();
  return kernels;
}

const KernelSpec *findKernel(const std::string &name) {
  for (const KernelSpec &spec : allKernels())
    if (spec.name == name)
      return &spec;
  return nullptr;
}

std::string availableKernelsHint() {
  std::string out = "available kernels:";
  for (const KernelSpec &spec : allKernels()) {
    out += out.back() == ':' ? " " : ", ";
    out += spec.name;
  }
  return out;
}

KernelSpec makeLongTripFir(const std::string &name, int64_t trip,
                           std::vector<double> coeffs) {
  const int64_t taps = static_cast<int64_t>(coeffs.size());
  KernelSpec spec;
  spec.name = name;
  spec.description = strfmt("generated %lld-trip %lld-tap FIR",
                            static_cast<long long>(trip),
                            static_cast<long long>(taps));
  spec.bufferShapes = {{trip + taps - 1}, {trip}};
  spec.outputs = {1};
  spec.build = [name, trip, coeffs](MContext &ctx, const KernelConfig &cfg) {
    OpBuilder b(ctx);
    KernelScaffold s(ctx, name,
                     {{trip + static_cast<int64_t>(coeffs.size()) - 1},
                      {trip}},
                     b);
    mir::Value *x = s.fn.arg(0), *y = s.fn.arg(1);
    markPartition(s.fn, cfg, 0, 0);
    markPartition(s.fn, cfg, 1, 0);
    ForOp loop = b.affineFor(0, trip);
    markInner(loop, cfg);
    b.setInsertPointToLoopBody(loop);
    mir::Value *i = loop.inductionVar();
    mir::Value *acc = nullptr;
    for (size_t t = 0; t < coeffs.size(); ++t) {
      mir::Value *term = b.binary(
          mir::ops::MulF, b.constantFloat(coeffs[t], ctx.f64()),
          loadShifted(b, x, {i}, {static_cast<int64_t>(t)}));
      acc = acc ? b.binary(mir::ops::AddF, acc, term) : term;
    }
    storeAt(b, acc, y, {i});
    s.finish(b);
    return std::move(s.module);
  };
  spec.reference = [trip, coeffs](Buffers &buf) {
    const std::vector<double> &x = buf[0];
    std::vector<double> &y = buf[1];
    for (int64_t i = 0; i < trip; ++i) {
      double acc = coeffs[0] * x[i];
      for (size_t t = 1; t < coeffs.size(); ++t)
        acc = acc + coeffs[t] * x[i + static_cast<int64_t>(t)];
      y[i] = acc;
    }
  };
  return spec;
}

std::string replicatedKernelMlir(const KernelSpec &spec,
                                 const KernelConfig &config, int copies) {
  MContext ctx;
  mir::OwnedModule module = spec.build(ctx, config);
  std::string one = mir::printModule(module.get());
  size_t open = one.find('{');
  size_t close = one.rfind('}');
  std::string body = one.substr(open + 1, close - open - 1);
  std::string from = "@" + spec.name;
  std::string text = "builtin.module {\n";
  for (int i = 0; i < copies; ++i) {
    std::string fn = body;
    std::string to = strfmt("@%s_%d", spec.name.c_str(), i);
    for (size_t pos = fn.find(from); pos != std::string::npos;
         pos = fn.find(from, pos + to.size()))
      fn.replace(pos, from.size(), to);
    text += fn;
  }
  text += "}\n";
  return text;
}

void seedBuffers(Buffers &buffers, uint64_t seed) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 33) & 0xffff) / 65536.0 - 0.5;
  };
  for (auto &buffer : buffers)
    for (double &v : buffer)
      v = next();
}

Buffers makeBuffers(const KernelSpec &spec) {
  Buffers buffers;
  for (unsigned i = 0; i < spec.bufferShapes.size(); ++i)
    buffers.emplace_back(static_cast<size_t>(spec.bufferSize(i)), 0.0);
  return buffers;
}

} // namespace mha::flow
