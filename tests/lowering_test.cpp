// Tests for the direct MLIR -> LLVM IR lowering: descriptor argument
// expansion, loop CFG shape, directive metadata, intrinsic emission, and
// functional correctness through the interpreter.
#include "flow/Kernels.h"
#include "lir/LContext.h"
#include "interp/Interp.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/transforms/MirTransforms.h"

#include <gtest/gtest.h>

using namespace mha;

namespace {

/// Builds a kernel, converts to scf, lowers to LLVM IR.
struct Lowered {
  mir::MContext mctx;
  lir::LContext lctx;
  std::unique_ptr<lir::Module> module;
  std::string error;

  Lowered(const std::string &kernel, const flow::KernelConfig &config) {
    const flow::KernelSpec *spec = flow::findKernel(kernel);
    EXPECT_NE(spec, nullptr);
    DiagnosticEngine diags;
    mir::OwnedModule mod = spec->build(mctx, config);
    mir::MPassManager pm;
    pm.add(mir::createCanonicalizePass());
    pm.add(mir::createAffineToScfPass());
    pm.add(mir::createCanonicalizePass());
    if (!pm.run(mod.get(), diags)) {
      error = diags.str();
      return;
    }
    module = lowering::lowerToLIR(mod.get(), lctx, {}, diags);
    if (!module)
      error = diags.str();
  }

  lir::Function *fn(const std::string &name) {
    return module->getFunction(name);
  }
};

} // namespace

TEST(Lowering, GemmDescriptorSignature) {
  Lowered l("gemm", {});
  ASSERT_NE(l.module, nullptr) << l.error;
  lir::Function *fn = l.fn("gemm");
  ASSERT_NE(fn, nullptr);
  // 3 memrefs of rank 2 -> 3 * (2 ptr + 1 offset + 2 sizes + 2 strides).
  EXPECT_EQ(fn->numArgs(), 21u);
  // Group-start args carry the descriptor metadata.
  int descriptors = 0;
  for (const auto &arg : fn->args())
    if (arg->getMetadata(lowering::kMemRefGroupMD))
      ++descriptors;
  EXPECT_EQ(descriptors, 3);
  // Modern attributes on the function.
  EXPECT_TRUE(fn->hasAttr("mustprogress"));
  // Opaque pointers everywhere.
  EXPECT_TRUE(l.module->flagIs("opaque-pointers", "true"));
  auto *pt = dyn_cast<lir::PointerType>(fn->arg(0)->type());
  ASSERT_NE(pt, nullptr);
  EXPECT_TRUE(pt->isOpaque());

  DiagnosticEngine diags;
  EXPECT_TRUE(lir::verifyModule(*l.module, diags)) << diags.str();
}

TEST(Lowering, LoopStructureIsCanonical) {
  Lowered l("gemm", {});
  ASSERT_NE(l.module, nullptr) << l.error;
  lir::Function *fn = l.fn("gemm");
  lir::DominatorTree domTree(*fn);
  lir::LoopInfo loopInfo(*fn, domTree);
  EXPECT_EQ(loopInfo.loops().size(), 3u);
  for (const auto &loop : loopInfo.loops()) {
    auto canonical = lir::matchCanonicalLoop(loop.get());
    ASSERT_TRUE(canonical.has_value());
    EXPECT_EQ(*canonical->tripCount, 32);
  }
}

TEST(Lowering, DirectiveMetadataOnLatch) {
  flow::KernelConfig config;
  config.pipelineII = 3;
  config.unrollFactor = 4;
  Lowered l("gemm", config);
  ASSERT_NE(l.module, nullptr) << l.error;
  std::string out = lir::printModule(*l.module);
  EXPECT_NE(out.find(lowering::kLoopPipelineMD), std::string::npos);
  EXPECT_NE(out.find(lowering::kLoopUnrollMD), std::string::npos);
  EXPECT_NE(out.find("!llvm.loop.pipeline.enable !{i64 3}"),
            std::string::npos);
}

TEST(Lowering, PartitionDirectiveBecomesAttr) {
  flow::KernelConfig config;
  config.partitionFactor = 4;
  Lowered l("gemm", config);
  ASSERT_NE(l.module, nullptr) << l.error;
  lir::Function *fn = l.fn("gemm");
  bool found = false;
  for (const std::string &attr : fn->attrs())
    if (attr.find("mha.partition=") == 0)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Lowering, FMulAddFusion) {
  Lowered l("gemm", {});
  ASSERT_NE(l.module, nullptr) << l.error;
  std::string out = lir::printModule(*l.module);
  EXPECT_NE(out.find("llvm.fmuladd.f64"), std::string::npos);
  // The raw fmul feeding it must be gone.
  EXPECT_EQ(out.find("= fmul "), std::string::npos);
}

TEST(Lowering, LinearizedAddressing) {
  Lowered l("gemm", {});
  std::string out = lir::printModule(*l.module);
  // Modern lowering: flat GEPs over the element type, not shaped ones.
  EXPECT_NE(out.find("getelementptr double, ptr"), std::string::npos);
  EXPECT_EQ(out.find("getelementptr [32 x"), std::string::npos);
}

TEST(Lowering, AllocaForLocalBuffer) {
  Lowered l("mm2", {});
  ASSERT_NE(l.module, nullptr) << l.error;
  std::string out = lir::printModule(*l.module);
  // tmp buffer is a flat alloca with shape metadata.
  EXPECT_NE(out.find("alloca [1024 x double]"), std::string::npos);
  EXPECT_NE(out.find("mha.shape"), std::string::npos);
}

TEST(Lowering, ExecutesCorrectlyViaDescriptors) {
  // The lowered (pre-adaptor) IR must already compute the right values
  // when called with expanded descriptor arguments.
  const flow::KernelSpec *spec = flow::findKernel("gemm");
  Lowered l("gemm", {});
  ASSERT_NE(l.module, nullptr) << l.error;

  flow::Buffers device = flow::makeBuffers(*spec);
  flow::seedBuffers(device);
  flow::Buffers host = device;
  spec->reference(host);

  std::vector<void *> pointers;
  for (auto &buffer : device)
    pointers.push_back(buffer.data());
  DiagnosticEngine diags;
  interp::Interpreter interpreter(*l.module);
  auto result = interpreter.run(
      l.fn("gemm"), interp::descriptorArgs(pointers, spec->bufferShapes),
      diags);
  ASSERT_TRUE(result.has_value()) << diags.str();
  for (unsigned out : spec->outputs)
    for (size_t i = 0; i < device[out].size(); ++i)
      ASSERT_EQ(device[out][i], host[out][i]) << "element " << i;
}

TEST(Lowering, AllKernelsLowerAndVerify) {
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    Lowered l(spec.name, {});
    ASSERT_NE(l.module, nullptr) << spec.name << ": " << l.error;
    DiagnosticEngine diags;
    EXPECT_TRUE(lir::verifyModule(*l.module, diags))
        << spec.name << ": " << diags.str();
  }
}
