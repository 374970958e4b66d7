// Tests for the virtual HLS backend: acceptance gating, scheduling,
// pipelining (RecMII/ResMII), unroll directives, partitioning and
// resource/report generation.
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "support/StringUtils.h"
#include "vhls/Estimate.h"
#include "vhls/Vhls.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mha;
using namespace mha::vhls;

namespace {

struct Synth {
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module;
  SynthesisReport report;
  std::string diagnostics;

  explicit Synth(const std::string &text, SynthesisOptions options = {}) {
    DiagnosticEngine diags;
    module = lir::parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
    if (!module)
      return;
    if (module->flags().find("opaque-pointers") == module->flags().end())
      module->flags()["opaque-pointers"] = "false";
    report = synthesize(*module, options, diags);
    diagnostics = diags.str();
  }
};

/// A pipelined streaming loop over a[iv] (no recurrence).
const std::string kStreamLoop = R"(
define void @k([64 x double]* noalias %a) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 64
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %iv
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)";

/// The accumulation loop: load s, fadd, store s (carried distance 1).
const std::string kAccumLoop = R"(
define void @k([64 x double]* noalias %a, [1 x double]* noalias %s) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 64
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %iv
  %v = load double, double* %addr
  %saddr = getelementptr [1 x double], [1 x double]* %s, i64 0, i64 0
  %acc = load double, double* %saddr
  %sum = fadd double %acc, %v
  store double %sum, double* %saddr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)";

} // namespace

TEST(VhlsAcceptance, RejectsOpaquePointerModule) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = lir::parseModule(R"(
!flag opaque-pointers = "true"
define void @k(ptr %p) {
entry:
  ret void
}
)",
                                 ctx, diags);
  ASSERT_NE(module, nullptr);
  SynthesisReport report = synthesize(*module, {}, diags);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.compat.violations["opaque-pointers"], 0);
  EXPECT_TRUE(report.functions.empty());
}

TEST(VhlsAcceptance, RejectsIntrinsics) {
  Synth s(R"(
declare double @llvm.fmuladd.f64(double, double, double)

define void @k(double* %p) {
entry:
  %v = load double, double* %p
  %r = call double @llvm.fmuladd.f64(double %v, double %v, double %v)
  store double %r, double* %p
  ret void
}
)");
  EXPECT_FALSE(s.report.accepted);
  EXPECT_GT(s.report.compat.violations["intrinsic-call"], 0);
}

TEST(VhlsAcceptance, WarnsOnFlatGeps) {
  Synth s(R"(
define void @k(double* %p) {
entry:
  %addr = getelementptr double, double* %p, i64 4
  %v = load double, double* %addr
  store double %v, double* %addr
  ret void
}
)");
  EXPECT_TRUE(s.report.accepted);
  EXPECT_GT(s.report.compat.violations["unshaped-gep"], 0);
  EXPECT_GT(s.report.compat.warnings, 0);
}

TEST(VhlsAcceptance, StrictModeRejectsWarnings) {
  SynthesisOptions options;
  options.strictAcceptance = true;
  Synth s(R"(
define void @k(double* %p) {
entry:
  %addr = getelementptr double, double* %p, i64 4
  %v = load double, double* %addr
  store double %v, double* %addr
  ret void
}
)",
          options);
  EXPECT_FALSE(s.report.accepted);
}

TEST(VhlsSchedule, StreamingLoopReachesIIOne) {
  Synth s(kStreamLoop);
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  ASSERT_EQ(s.report.functions.size(), 1u);
  const FunctionReport &fn = s.report.functions[0];
  ASSERT_EQ(fn.loops.size(), 1u);
  const LoopReport &loop = fn.loops[0];
  EXPECT_TRUE(loop.pipelined);
  EXPECT_EQ(loop.achievedII, 1);
  EXPECT_EQ(loop.recMII, 1);
  EXPECT_EQ(loop.tripCount, 64);
  // latency ~ depth + 63*1.
  EXPECT_LT(loop.totalLatency, 100);
}

TEST(VhlsSchedule, AccumulationLoopIsRecurrenceLimited) {
  Synth s(kAccumLoop);
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  EXPECT_TRUE(loop.pipelined);
  // load(2) + fadd(4) + store(1) = 7-cycle recurrence at distance 1.
  EXPECT_EQ(loop.recMII, 7);
  EXPECT_EQ(loop.achievedII, 7);
  EXPECT_GT(loop.totalLatency, 63 * 7);
}

TEST(VhlsSchedule, PortPressureRaisesResMII) {
  // Four loads from one unpartitioned array per iteration, 2 ports.
  Synth s(R"(
define void @k([64 x double]* noalias %a, [64 x double]* noalias %o) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 16
  br i1 %cmp, label %body, label %exit
body:
  %a0 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %iv
  %v0 = load double, double* %a0
  %i1 = add i64 %iv, 16
  %a1 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i1
  %v1 = load double, double* %a1
  %i2 = add i64 %iv, 32
  %a2 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i2
  %v2 = load double, double* %a2
  %i3 = add i64 %iv, 48
  %a3 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i3
  %v3 = load double, double* %a3
  %s1 = fadd double %v0, %v1
  %s2 = fadd double %v2, %v3
  %s3 = fadd double %s1, %s2
  %oaddr = getelementptr [64 x double], [64 x double]* %o, i64 0, i64 %iv
  store double %s3, double* %oaddr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  // 4 accesses on one dual-ported bank -> ResMII 2.
  EXPECT_EQ(loop.resMII, 2);
  EXPECT_GE(loop.achievedII, 2);
}

TEST(VhlsSchedule, PartitioningRestoresIIOne) {
  // Same pattern but accesses fall in distinct cyclic banks (factor 4,
  // offsets 0,16,32,48 are congruent mod 4 -> use offsets 0..3 instead).
  Synth s(R"(
define void @k([64 x double]* noalias !xlx.array_partition !{!{i64 0, i64 4, !"cyclic"}} %a, [64 x double]* noalias %o) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 15
  br i1 %cmp, label %body, label %exit
body:
  %base = mul i64 %iv, 4
  %a0 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %base
  %v0 = load double, double* %a0
  %i1 = add i64 %base, 1
  %a1 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i1
  %v1 = load double, double* %a1
  %i2 = add i64 %base, 2
  %a2 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i2
  %v2 = load double, double* %a2
  %i3 = add i64 %base, 3
  %a3 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i3
  %v3 = load double, double* %a3
  %s1 = fadd double %v0, %v1
  %s2 = fadd double %v2, %v3
  %s3 = fadd double %s1, %s2
  %oaddr = getelementptr [64 x double], [64 x double]* %o, i64 0, i64 %iv
  store double %s3, double* %oaddr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  EXPECT_EQ(loop.resMII, 1) << s.report.str();
  EXPECT_EQ(loop.achievedII, 1);
}

TEST(VhlsSchedule, UnrollDirectiveApplied) {
  std::string unrolled = kStreamLoop;
  size_t pos = unrolled.find("!xlx.pipeline !{i64 1}");
  unrolled.replace(pos, std::string("!xlx.pipeline !{i64 1}").size(),
                   "!xlx.unroll !{i64 4}");
  Synth s(unrolled);
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  EXPECT_FALSE(loop.pipelined);
  // Trip shrank from 64 to 16 after unroll-by-4.
  EXPECT_EQ(loop.tripCount, 16);
}

TEST(VhlsSchedule, TargetIIHonoured) {
  std::string relaxed = kStreamLoop;
  size_t pos = relaxed.find("!{i64 1}");
  relaxed.replace(pos, 8, "!{i64 3}");
  Synth s(relaxed);
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  EXPECT_EQ(s.report.functions[0].loops[0].achievedII, 3);
}

TEST(VhlsSchedule, OuterLoopNotPipelined) {
  Synth s(R"(
define void @k([8 x double]* noalias %a) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 8
  br i1 %ocmp, label %inner.pre, label %exit
inner.pre:
  br label %inner
inner:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner ]
  %addr = getelementptr [8 x double], [8 x double]* %a, i64 0, i64 %j
  %v = load double, double* %addr
  store double %v, double* %addr
  %j.next = add i64 %j, 1
  %icmp2 = icmp slt i64 %j.next, 8
  br i1 %icmp2, label %inner, label %outer.latch
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  bool foundNote = false;
  for (const LoopReport &loop : s.report.functions[0].loops)
    if (loop.note.find("subloop") != std::string::npos)
      foundNote = true;
  EXPECT_TRUE(foundNote) << s.report.str();
}

TEST(VhlsResources, CountsDSPandBRAM) {
  Synth s(kStreamLoop);
  const FunctionReport &fn = s.report.functions[0];
  // One double multiplier -> 11 DSP.
  EXPECT_GE(fn.resources.dsp, 11);
  // Interface array reported but not charged to the kernel.
  ASSERT_EQ(fn.arrays.size(), 1u);
  EXPECT_FALSE(fn.arrays[0].onChip);
  EXPECT_EQ(fn.arrays[0].bramBlocks, bramBlocksFor(64 * 8));
  EXPECT_EQ(fn.resources.bram, 0);
}

TEST(VhlsResources, OnChipArrayChargedToKernel) {
  Synth s(R"(
define void @k(double* %out) {
entry:
  %buf = alloca [512 x double]
  %addr = getelementptr [512 x double], [512 x double]* %buf, i64 0, i64 0
  %v = load double, double* %addr
  store double %v, double* %out
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  EXPECT_GT(s.report.functions[0].resources.bram, 0);
}

TEST(VhlsReport, RendersText) {
  Synth s(kStreamLoop);
  std::string text = s.report.str();
  EXPECT_NE(text.find("ACCEPTED"), std::string::npos);
  EXPECT_NE(text.find("function @k"), std::string::npos);
  EXPECT_NE(text.find("pipelined II=1"), std::string::npos);
}

TEST(VhlsHierarchy, CalleeLatencyPropagates) {
  Synth s(R"(
define void @leaf([16 x double]* noalias %a) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 16
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [16 x double], [16 x double]* %a, i64 0, i64 %iv
  %v = load double, double* %addr
  %d = fadd double %v, 1.0
  store double %d, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}

define void @top([16 x double]* noalias %a) {
entry:
  call void @leaf([16 x double]* %a)
  call void @leaf([16 x double]* %a)
  ret void
}
)",
          [] {
            SynthesisOptions o;
            o.topFunction = "top";
            return o;
          }());
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const FunctionReport *top = s.report.top();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->name, "top");
  int64_t leafLatency = 0;
  for (const FunctionReport &fn : s.report.functions)
    if (fn.name == "leaf")
      leafLatency = fn.latencyCycles;
  EXPECT_GT(leafLatency, 16);
  EXPECT_GE(top->latencyCycles, 2 * leafLatency);
}

TEST(VhlsReport, JsonExport) {
  Synth s(kStreamLoop);
  std::string json = s.report.json();
  EXPECT_NE(json.find("\"accepted\": true"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"k\""), std::string::npos);
  EXPECT_NE(json.find("\"pipelined\": true"), std::string::npos);
  EXPECT_NE(json.find("\"ii\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"latency_cycles\""), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(VhlsDataflow, OverlapsIndependentNests) {
  Synth s(R"(
define void @k([32 x double]* noalias %a, [32 x double]* noalias %b) #[xlx.dataflow] {
entry:
  br label %h1
h1:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b1 ]
  %c1 = icmp slt i64 %i, 32
  br i1 %c1, label %b1, label %mid
b1:
  %a1 = getelementptr [32 x double], [32 x double]* %a, i64 0, i64 %i
  %v1 = load double, double* %a1
  %d1 = fmul double %v1, 2.0
  store double %d1, double* %a1
  %i.next = add i64 %i, 1
  br label %h1
mid:
  br label %h2
h2:
  %j = phi i64 [ 0, %mid ], [ %j.next, %b2 ]
  %c2 = icmp slt i64 %j, 32
  br i1 %c2, label %b2, label %exit
b2:
  %a2 = getelementptr [32 x double], [32 x double]* %b, i64 0, i64 %j
  %v2 = load double, double* %a2
  %d2 = fmul double %v2, 3.0
  store double %d2, double* %a2
  %j.next = add i64 %j, 1
  br label %h2
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const FunctionReport &fn = s.report.functions[0];
  EXPECT_TRUE(fn.dataflow);
  int64_t maxLoop = 0, sumLoop = 0;
  for (const LoopReport &loop : fn.loops) {
    maxLoop = std::max(maxLoop, loop.totalLatency);
    sumLoop += loop.totalLatency;
  }
  // Latency tracks the slowest task, not the sum.
  EXPECT_LT(fn.latencyCycles, sumLoop);
  EXPECT_GE(fn.latencyCycles, maxLoop);
}

TEST(VhlsAllocation, FULimitRaisesResMII) {
  // jacobi-like body: 5 independent fmuls per iteration; with an
  // allocation limit of 1 fmul unit the II must rise to >= 5.
  const std::string text = R"(
define void @k([64 x double]* noalias !xlx.array_partition !{!{i64 0, i64 8, !"cyclic"}} %a, [64 x double]* noalias %o) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 8
  br i1 %cmp, label %body, label %exit
body:
  %base = mul i64 %iv, 8
  %a0 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %base
  %v0 = load double, double* %a0
  %i1 = add i64 %base, 1
  %a1 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %i1
  %v1 = load double, double* %a1
  %m0 = fmul double %v0, 2.0
  %m1 = fmul double %v1, 3.0
  %m2 = fmul double %v0, 4.0
  %m3 = fmul double %v1, 5.0
  %m4 = fmul double %v0, 6.0
  %s1 = fadd double %m0, %m1
  %s2 = fadd double %m2, %m3
  %s3 = fadd double %s1, %s2
  %s4 = fadd double %s3, %m4
  %oaddr = getelementptr [64 x double], [64 x double]* %o, i64 0, i64 %iv
  store double %s4, double* %oaddr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)";
  // Unlimited: II=1.
  Synth unlimited(text);
  ASSERT_TRUE(unlimited.report.accepted) << unlimited.diagnostics;
  EXPECT_EQ(unlimited.report.functions[0].loops[0].achievedII, 1);

  // One fmul unit: II >= 5 and the DSP bill shrinks accordingly.
  SynthesisOptions constrained;
  constrained.target.fuLimits["fmul"] = 1;
  Synth limited(text, constrained);
  ASSERT_TRUE(limited.report.accepted) << limited.diagnostics;
  const LoopReport &loop = limited.report.functions[0].loops[0];
  EXPECT_GE(loop.resMII, 5);
  EXPECT_GE(loop.achievedII, 5);
  EXPECT_LT(limited.report.functions[0].resources.dsp,
            unlimited.report.functions[0].resources.dsp);
}

TEST(VhlsAllocation, LimitSerializesStraightLineCode) {
  const std::string text = R"(
define void @k(double* %p, double* %q) {
entry:
  %v = load double, double* %p
  %m0 = fmul double %v, 2.0
  %m1 = fmul double %v, 3.0
  %m2 = fmul double %v, 4.0
  %m3 = fmul double %v, 5.0
  %s1 = fadd double %m0, %m1
  %s2 = fadd double %m2, %m3
  %s3 = fadd double %s1, %s2
  store double %s3, double* %q
  ret void
}
)";
  Synth unlimited(text);
  SynthesisOptions constrained;
  constrained.target.fuLimits["fmul"] = 1;
  Synth limited(text, constrained);
  // Serializing the 4 parallel multiplies must lengthen the schedule.
  EXPECT_GT(limited.report.functions[0].latencyCycles,
            unlimited.report.functions[0].latencyCycles);
}

TEST(VhlsTechLibrary, Float32IsCheaperAndShallower) {
  // f32 cores are shallower and cheaper than f64 — check through a full
  // synthesis of the same loop in both precisions.
  auto loopFor = [](const char *ty) {
    return strfmt(R"(
define void @k([64 x %s]* noalias %%a) {
entry:
  br label %%header
header:
  %%iv = phi i64 [ 0, %%entry ], [ %%next, %%body ]
  %%cmp = icmp slt i64 %%iv, 64
  br i1 %%cmp, label %%body, label %%exit
body:
  %%addr = getelementptr [64 x %s], [64 x %s]* %%a, i64 0, i64 %%iv
  %%v = load %s, %s* %%addr
  %%d = fmul %s %%v, 2.0
  %%e = fdiv %s %%d, 3.0
  store %s %%e, %s* %%addr
  %%next = add i64 %%iv, 1
  br label %%header
exit:
  ret void
}
)",
                  ty, ty, ty, ty, ty, ty, ty, ty, ty);
  };
  Synth f64(loopFor("double"));
  Synth f32(loopFor("float"));
  ASSERT_TRUE(f64.report.accepted) << f64.diagnostics;
  ASSERT_TRUE(f32.report.accepted) << f32.diagnostics;
  EXPECT_LT(f32.report.functions[0].latencyCycles,
            f64.report.functions[0].latencyCycles);
  EXPECT_LT(f32.report.functions[0].resources.dsp,
            f64.report.functions[0].resources.dsp);
  EXPECT_LT(f32.report.functions[0].resources.lut,
            f64.report.functions[0].resources.lut);
}

TEST(VhlsSchedule, UnknownTripCountHandledGracefully) {
  // A loop bounded by an argument: no constant trip count. The scheduler
  // reports trip=-1 and still produces a (one-iteration-normalized)
  // latency rather than crashing or rejecting.
  Synth s(R"(
define void @k([64 x double]* noalias %a, i64 %n) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, %n
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 %iv
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  EXPECT_EQ(loop.tripCount, -1);
  EXPECT_GT(loop.totalLatency, 0);
  EXPECT_TRUE(loop.pipelined);
  EXPECT_EQ(loop.achievedII, 1);
}

TEST(VhlsFlatten, PerfectNestPipelinesAcrossOuter) {
  // Outer (8) x inner (16, pipelined II=1) perfect nest: flattening must
  // yield ~depth + 127 cycles, far below 8 sequential pipeline fills.
  Synth s(R"(
define void @k([128 x double]* noalias %a) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 8
  br i1 %ocmp, label %inner.pre, label %exit
inner.pre:
  br label %inner.header
inner.header:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner.body ]
  %icmp2 = icmp slt i64 %j, 16
  br i1 %icmp2, label %inner.body, label %outer.latch
inner.body:
  %base = mul i64 %i, 16
  %idx = add i64 %base, %j
  %addr = getelementptr [128 x double], [128 x double]* %a, i64 0, i64 %idx
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  %j.next = add i64 %j, 1
  br label %inner.header, !xlx.pipeline !{i64 1}
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport *outer = nullptr;
  for (const LoopReport &loop : s.report.functions[0].loops)
    if (loop.note == "flattened")
      outer = &loop;
  ASSERT_NE(outer, nullptr) << s.report.str();
  EXPECT_EQ(outer->tripCount, 128); // flattened trip
  EXPECT_EQ(outer->achievedII, 1);
  EXPECT_LT(outer->totalLatency, 160);
}

TEST(VhlsFlatten, ImperfectNestStaysSequential) {
  // Datapath work between the loops (the store) blocks flattening.
  Synth s(R"(
define void @k([8 x double]* noalias %a, [128 x double]* noalias %b) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 8
  br i1 %ocmp, label %pre, label %exit
pre:
  %oaddr = getelementptr [8 x double], [8 x double]* %a, i64 0, i64 %i
  store double 0.0, double* %oaddr
  br label %inner.header
inner.header:
  %j = phi i64 [ 0, %pre ], [ %j.next, %inner.body ]
  %icmp2 = icmp slt i64 %j, 16
  br i1 %icmp2, label %inner.body, label %outer.latch
inner.body:
  %base = mul i64 %i, 16
  %idx = add i64 %base, %j
  %addr = getelementptr [128 x double], [128 x double]* %b, i64 0, i64 %idx
  %v = load double, double* %addr
  store double %v, double* %addr
  %j.next = add i64 %j, 1
  br label %inner.header, !xlx.pipeline !{i64 1}
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  for (const LoopReport &loop : s.report.functions[0].loops)
    EXPECT_NE(loop.note, "flattened") << s.report.str();
}

TEST(VhlsPartition, BlockPartitioningSeparatesHalves) {
  // Block partition factor 2 on a [64] array: constant subscripts 3 and
  // 40 fall into different banks, so both loads issue in one cycle even
  // with single-port pressure from elsewhere.
  Synth s(R"(
define void @k([64 x double]* noalias !xlx.array_partition !{!{i64 0, i64 2, !"block"}} %a, [64 x double]* noalias %o) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 16
  br i1 %cmp, label %body, label %exit
body:
  %a0 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 3
  %v0 = load double, double* %a0
  %a1 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 40
  %v1 = load double, double* %a1
  %a2 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 5
  %v2 = load double, double* %a2
  %a3 = getelementptr [64 x double], [64 x double]* %a, i64 0, i64 43
  %v3 = load double, double* %a3
  %s1 = fadd double %v0, %v1
  %s2 = fadd double %v2, %v3
  %s3 = fadd double %s1, %s2
  %oaddr = getelementptr [64 x double], [64 x double]* %o, i64 0, i64 %iv
  store double %s3, double* %oaddr
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)");
  ASSERT_TRUE(s.report.accepted) << s.diagnostics;
  const LoopReport &loop = s.report.functions[0].loops[0];
  // 2 loads per bank / 2 ports -> ResMII 1.
  EXPECT_EQ(loop.resMII, 1) << s.report.str();
  EXPECT_EQ(loop.achievedII, 1);
  // The array report shows the block partitioning.
  bool found = false;
  for (const ArrayReport &array : s.report.functions[0].arrays)
    if (array.partition.find("block") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

// The bank classes the scheduler and the DSE estimator share
// (vhls/Estimate.h).
TEST(VhlsMemoryModel, BankClassOfCyclicBlockAndUnpartitioned) {
  PartitionInfo cyclic;
  cyclic.factor = 4;
  BankClass c = bankClassOf(cyclic, 64, /*ivCoef=*/1, /*constant=*/6);
  EXPECT_TRUE(c.known);
  EXPECT_EQ(c.residue, 2);
  EXPECT_EQ(c.ivCoef, 1);
  EXPECT_EQ(c.key(), 2001);
  // Negative offsets wrap to a non-negative residue.
  EXPECT_EQ(bankClassOf(cyclic, 64, 0, -1).residue, 3);

  // A negative stride keeps its sign (C++ remainder), so the key of
  // residue 0 with stride -1 is -1.
  BankClass down = bankClassOf(cyclic, 64, /*ivCoef=*/-5, /*constant=*/8);
  EXPECT_TRUE(down.known);
  EXPECT_EQ(down.residue, 0);
  EXPECT_EQ(down.ivCoef, -1);
  EXPECT_EQ(down.key(), -1);

  PartitionInfo block;
  block.factor = 4;
  block.cyclic = false;
  // Bank = index / (extent / factor) = 35 / 16.
  BankClass fixed = bankClassOf(block, 64, 0, 35);
  EXPECT_TRUE(fixed.known);
  EXPECT_EQ(fixed.residue, 2);
  EXPECT_EQ(fixed.key(), 2000);
  // A block bank that moves with the iv is not static.
  EXPECT_FALSE(bankClassOf(block, 64, 1, 35).known);

  // One bank: known residue 0 whatever the subscript.
  PartitionInfo none;
  for (PartitionInfo partition : {none, block}) {
    partition.factor = 1;
    BankClass single = bankClassOf(partition, 64, 3, 7);
    EXPECT_TRUE(single.known);
    EXPECT_EQ(single.key(), 0);
  }
}

TEST(VhlsMemoryModel, ResMIIAccumulatorMixesKnownUnknownAndFuLimits) {
  BankClass bank0{true, 0, 0}, bank1{true, 1, 0}, unknown;
  ResMIIAccumulator acc;
  EXPECT_EQ(acc.add(0, bank0), 0);
  EXPECT_EQ(acc.add(0, bank0), 0);
  EXPECT_EQ(acc.add(0, bank1), 1);
  EXPECT_EQ(acc.add(0, unknown), 2);
  EXPECT_EQ(acc.add(0, unknown), 2);
  EXPECT_EQ(acc.add(1, bank0), 3); // same class, other base: its own row
  ASSERT_EQ(acc.rows(), 4u);
  EXPECT_EQ(acc.baseOf(2), 0);
  EXPECT_EQ(acc.baseOf(3), 1);
  // Base 0's bank 0 row contends with both unknown accesses: 2 + 2.
  // Base 1 sees none of them.
  EXPECT_EQ(acc.resMII(1), 4);
  EXPECT_EQ(acc.resMII(2), 2);
  // Ten ops on two units bound the II at 5; unlimited classes do not.
  acc.addAllocation(10, 2);
  acc.addAllocation(100, 0);
  EXPECT_EQ(acc.resMII(1), 5);
  acc.clear();
  EXPECT_EQ(acc.rows(), 0u);
  EXPECT_EQ(acc.resMII(1), 1);
}
