// Tests for dominators, loop info, canonical-loop matching and the
// loop dependence analysis.
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/analysis/Dependence.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/LoopUnroll.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace mha;
using namespace mha::lir;

namespace {

struct Parsed {
  LContext ctx;
  std::unique_ptr<Module> module;
  Function *fn = nullptr;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
    if (module)
      fn = module->functions().front();
  }

  BasicBlock *block(const std::string &name) {
    for (BasicBlock *bb : fn->blockPtrs())
      if (bb->name() == name)
        return bb;
    return nullptr;
  }
};

const std::string kDiamond = R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret void
}
)";

const std::string kLoop = R"(
define void @f(ptr %p) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr double, ptr %p, i64 %iv
  %v = load double, ptr %addr
  store double %v, ptr %addr
  %next = add i64 %iv, 2
  br label %header
exit:
  ret void
}
)";

} // namespace

TEST(Dominators, Diamond) {
  Parsed p(kDiamond);
  DominatorTree domTree(*p.fn);
  BasicBlock *entry = p.block("entry");
  BasicBlock *a = p.block("a");
  BasicBlock *b = p.block("b");
  BasicBlock *join = p.block("join");

  EXPECT_TRUE(domTree.dominates(entry, join));
  EXPECT_TRUE(domTree.dominates(entry, a));
  EXPECT_FALSE(domTree.dominates(a, join));
  EXPECT_FALSE(domTree.dominates(a, b));
  EXPECT_TRUE(domTree.dominates(a, a));
  EXPECT_EQ(domTree.idom(join), entry);
  EXPECT_EQ(domTree.idom(a), entry);
  EXPECT_EQ(domTree.idom(entry), nullptr);
}

TEST(Dominators, RPOStartsAtEntry) {
  Parsed p(kDiamond);
  DominatorTree domTree(*p.fn);
  ASSERT_FALSE(domTree.rpo().empty());
  EXPECT_EQ(domTree.rpo().front(), p.block("entry"));
  EXPECT_EQ(domTree.rpo().size(), 4u);
}

TEST(Dominators, UnreachableBlockHandled) {
  Parsed p(R"(
define void @f() {
entry:
  ret void
dead:
  br label %dead
}
)");
  DominatorTree domTree(*p.fn);
  EXPECT_FALSE(domTree.isReachable(p.block("dead")));
  EXPECT_TRUE(domTree.isReachable(p.block("entry")));
}

TEST(LoopInfo, SingleLoop) {
  Parsed p(kLoop);
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 1u);
  Loop *loop = loopInfo.loops().front().get();
  EXPECT_EQ(loop->header(), p.block("header"));
  EXPECT_EQ(loop->latch(), p.block("body"));
  EXPECT_EQ(loop->preheader(), p.block("entry"));
  EXPECT_EQ(loop->exitBlock(), p.block("exit"));
  EXPECT_TRUE(loop->isInnermost());
  EXPECT_EQ(loop->depth(), 1u);
  EXPECT_EQ(loopInfo.loopFor(p.block("body")), loop);
  EXPECT_EQ(loopInfo.loopFor(p.block("exit")), nullptr);
}

TEST(LoopInfo, NestedLoops) {
  Parsed p(R"(
define void @f() {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 4
  br i1 %ocmp, label %inner.pre, label %exit
inner.pre:
  br label %inner
inner:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner ]
  %j.next = add i64 %j, 1
  %icmp2 = icmp slt i64 %j.next, 8
  br i1 %icmp2, label %inner, label %outer.latch
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 2u);
  std::vector<Loop *> top = loopInfo.topLevelLoops();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0]->header(), p.block("outer"));
  ASSERT_EQ(top[0]->subLoops().size(), 1u);
  Loop *inner = top[0]->subLoops()[0];
  EXPECT_EQ(inner->header(), p.block("inner"));
  EXPECT_EQ(inner->depth(), 2u);
  EXPECT_EQ(loopInfo.loopFor(p.block("inner")), inner);
  EXPECT_EQ(loopInfo.loopFor(p.block("outer.latch")), top[0]);
}

TEST(CanonicalLoop, MatchAndTripCount) {
  Parsed p(kLoop);
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_EQ(canonical->step, 2);
  ASSERT_TRUE(canonical->tripCount.has_value());
  EXPECT_EQ(*canonical->tripCount, 16); // (32-0)/2
  EXPECT_EQ(canonical->indVar->name(), "iv");
}

TEST(CanonicalLoop, RejectsNonCanonical) {
  // Exit on true (inverted) is not canonical.
  Parsed p(R"(
define void @f() {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp sge i64 %iv, 32
  br i1 %cmp, label %exit, label %body
body:
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 1u);
  EXPECT_FALSE(matchCanonicalLoop(loopInfo.loops().front().get())
                   .has_value());
}

TEST(Linearize, BasicForms) {
  Parsed p(R"(
define void @f(i64 %n) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %a = mul i64 %iv, 8
  %b = add i64 %a, 3
  %c = add i64 %b, %n
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  BasicBlock *body = p.block("body");
  Instruction *iv = p.block("header")->phis().front();
  auto it = body->begin();
  Instruction *a = it->get();
  Instruction *b = std::next(it)->get();
  Instruction *c = std::next(it, 2)->get();

  LinearSubscript sa = linearizeInIV(a, iv);
  EXPECT_TRUE(sa.valid);
  EXPECT_EQ(sa.ivCoef, 8);
  EXPECT_EQ(sa.constant, 0);
  EXPECT_TRUE(sa.symbols.empty());

  LinearSubscript sb = linearizeInIV(b, iv);
  EXPECT_EQ(sb.ivCoef, 8);
  EXPECT_EQ(sb.constant, 3);

  LinearSubscript sc = linearizeInIV(c, iv);
  EXPECT_EQ(sc.ivCoef, 8);
  EXPECT_EQ(sc.constant, 3);
  ASSERT_EQ(sc.symbols.size(), 1u);
  EXPECT_EQ(sc.symbols[0].second, 1);
}

namespace {

/// Builds the classic accumulation loop:
///   for i: s = load p[0]; s' = fadd s, x; store s' -> p[0]
Parsed accumulationLoop() {
  return Parsed(R"(
define void @f([32 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 5
  %s = load double, double* %addr
  %s2 = fadd double %s, %x
  store double %s2, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
}

} // namespace

TEST(Dependence, AccumulationHasCarriedDistanceOne) {
  Parsed p = accumulationLoop();
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<MemAccess> accesses = collectLoopAccesses(*canonical);
  ASSERT_EQ(accesses.size(), 2u);
  EXPECT_TRUE(accesses[0].affine);
  std::vector<LoopDependence> deps = analyzeLoopDependences(accesses);
  bool carried = false;
  for (const LoopDependence &dep : deps)
    if (dep.distance == 1)
      carried = true;
  EXPECT_TRUE(carried);
}

TEST(Dependence, StreamingAccessHasNoCarriedDependence) {
  // store p[iv], load p[iv]: same iteration only.
  Parsed p(R"(
define void @f([32 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %iv
  store double %x, double* %addr
  %v = load double, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<LoopDependence> deps =
      analyzeLoopDependences(collectLoopAccesses(*canonical));
  for (const LoopDependence &dep : deps)
    EXPECT_EQ(dep.distance, 0) << "unexpected carried dependence";
  // But the intra-iteration ordering edge must exist.
  EXPECT_FALSE(deps.empty());
}

TEST(Dependence, ShiftedAccessDistance) {
  // store p[iv], load p[iv - 3]: distance-3 carried dependence.
  Parsed p(R"(
define void @f([64 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 3, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 64
  br i1 %cmp, label %body, label %exit
body:
  %a1 = getelementptr [64 x double], [64 x double]* %p, i64 0, i64 %iv
  store double %x, double* %a1
  %back = sub i64 %iv, 3
  %a2 = getelementptr [64 x double], [64 x double]* %p, i64 0, i64 %back
  %v = load double, double* %a2
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<LoopDependence> deps =
      analyzeLoopDependences(collectLoopAccesses(*canonical));
  bool found = false;
  for (const LoopDependence &dep : deps)
    if (dep.distance == 3)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Dependence, DisjointArraysNoDependence) {
  Parsed p(R"(
define void @f([32 x double]* %a, [32 x double]* %b, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %a1 = getelementptr [32 x double], [32 x double]* %a, i64 0, i64 %iv
  store double %x, double* %a1
  %a2 = getelementptr [32 x double], [32 x double]* %b, i64 0, i64 %iv
  %v = load double, double* %a2
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_TRUE(analyzeLoopDependences(collectLoopAccesses(*canonical))
                  .empty());
}

TEST(Dependence, UnrolledBodyEdgesArePinned) {
  // y[i] = x[i] + x[i+1] plus an accumulator acc[0] += x[i], unrolled 4x
  // by the backend: the body carries four copies of every access. The
  // edges (source position, destination position, distance) are pinned
  // so a faster analysis must reproduce the exact multiset. Distances are
  // in iv units; after the unroll the iv steps by 4, so the copies' y
  // stores (positions 7, 21, 35, 49) get carried edges though they never
  // alias.
  Parsed p(R"(
define void @f([36 x double]* %x, [32 x double]* %y, [1 x double]* %acc) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %i, 32
  br i1 %cmp, label %body, label %exit
body:
  %xa = getelementptr [36 x double], [36 x double]* %x, i64 0, i64 %i
  %x0 = load double, double* %xa
  %i1 = add i64 %i, 1
  %xb = getelementptr [36 x double], [36 x double]* %x, i64 0, i64 %i1
  %x1 = load double, double* %xb
  %sum = fadd double %x0, %x1
  %ya = getelementptr [32 x double], [32 x double]* %y, i64 0, i64 %i
  store double %sum, double* %ya
  %aa = getelementptr [1 x double], [1 x double]* %acc, i64 0, i64 0
  %s = load double, double* %aa
  %s2 = fadd double %s, %x0
  store double %s2, double* %aa
  %next = add i64 %i, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(unrollLoopByFactor(*canonical, 4));

  std::vector<MemAccess> accesses = collectLoopAccesses(*canonical);
  auto positionInBlock = [](const Instruction *inst) {
    unsigned pos = 0;
    for (const auto &other : *inst->parent()) {
      if (other.get() == inst)
        break;
      ++pos;
    }
    return pos;
  };
  for (const MemAccess &access : accesses)
    EXPECT_EQ(access.pos, positionInBlock(access.inst));

  using Edge = std::tuple<unsigned, unsigned, int64_t>;
  std::vector<Edge> edges;
  for (const LoopDependence &dep : analyzeLoopDependences(accesses))
    edges.emplace_back(positionInBlock(accesses[dep.src].inst),
                       positionInBlock(accesses[dep.dst].inst), dep.distance);
  std::sort(edges.begin(), edges.end());
  const std::vector<Edge> expected = {
      {9, 11, 0}, {9, 11, 1}, {9, 25, 0}, {9, 25, 1}, {9, 39, 0}, {9, 39, 1},
      {9, 53, 0}, {9, 53, 1},
      {11, 9, 1}, {11, 23, 0}, {11, 23, 1}, {11, 25, 0}, {11, 25, 1},
      {11, 37, 0}, {11, 37, 1}, {11, 39, 0}, {11, 39, 1}, {11, 51, 0},
      {11, 51, 1}, {11, 53, 0}, {11, 53, 1},
      {21, 7, 1},
      {23, 11, 1}, {23, 25, 0}, {23, 25, 1}, {23, 39, 0}, {23, 39, 1},
      {23, 53, 0}, {23, 53, 1},
      {25, 9, 1}, {25, 11, 1}, {25, 23, 1}, {25, 37, 0}, {25, 37, 1},
      {25, 39, 0}, {25, 39, 1}, {25, 51, 0}, {25, 51, 1}, {25, 53, 0},
      {25, 53, 1},
      {35, 7, 2}, {35, 21, 1},
      {37, 11, 1}, {37, 25, 1}, {37, 39, 0}, {37, 39, 1}, {37, 53, 0},
      {37, 53, 1},
      {39, 9, 1}, {39, 11, 1}, {39, 23, 1}, {39, 25, 1}, {39, 37, 1},
      {39, 51, 0}, {39, 51, 1}, {39, 53, 0}, {39, 53, 1},
      {49, 7, 3}, {49, 21, 2}, {49, 35, 1},
      {51, 11, 1}, {51, 25, 1}, {51, 39, 1}, {51, 53, 0}, {51, 53, 1},
      {53, 9, 1}, {53, 11, 1}, {53, 23, 1}, {53, 25, 1}, {53, 37, 1},
      {53, 39, 1}, {53, 51, 1}};
  EXPECT_EQ(edges, expected);
}
