// Call legalization for multi-function MiniLLVM modules: the bottom-up
// Inliner, the Rec2Iter explicit-stack rewrite and CallSitePrivatization.
// Transform correctness is checked two ways: structurally (what the
// printed module contains, which stats fired, which notes explain a skip)
// and behaviourally (the interpreter computes the same values before and
// after — the same oracle the fuzzer uses).
#include "interp/Interp.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/transforms/Transforms.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::lir;

namespace {

struct Parsed {
  LContext ctx;
  std::unique_ptr<Module> module;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
  }

  /// Runs one pass (verifying after it) and returns its stats; the pass's
  /// notes land in `notes` when provided.
  PassStats runPass(std::unique_ptr<ModulePass> pass,
                    std::string *notes = nullptr) {
    PassManager pm(/*verifyEach=*/true);
    pm.add(std::move(pass));
    DiagnosticEngine diags;
    EXPECT_TRUE(pm.run(*module, diags)) << diags.str();
    if (notes)
      *notes = diags.str();
    return pm.totalStats();
  }

  int64_t interp(const std::string &fn, std::vector<int64_t> args) {
    std::vector<interp::RtValue> rtArgs;
    for (int64_t a : args)
      rtArgs.push_back(interp::RtValue::ofInt(a));
    DiagnosticEngine diags;
    interp::Interpreter interpreter(*module);
    auto result = interpreter.run(module->getFunction(fn),
                                  std::move(rtArgs), diags);
    EXPECT_TRUE(result.has_value()) << diags.str();
    return result ? result->i : 0;
  }

  std::string print() { return printModule(*module); }
};

const char *kFactorialModule = R"(
define i64 @fact(i64 %n) {
entry:
  %cmp = icmp sle i64 %n, 1
  br i1 %cmp, label %base, label %rec
base:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @fact(i64 %n1)
  %v = mul i64 %n, %r
  ret i64 %v
}
)";

const char *kFibModule = R"(
define i64 @fib(i64 %n) #[mha.rec_depth=24] {
entry:
  %cmp = icmp sle i64 %n, 1
  br i1 %cmp, label %base, label %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %r1 = call i64 @fib(i64 %n1)
  %n2 = sub i64 %n, 2
  %r2 = call i64 @fib(i64 %n2)
  %v = add i64 %r1, %r2
  ret i64 %v
}
)";

} // namespace

// --- Inliner ------------------------------------------------------------

TEST(Inliner, InlinesHelperAndErasesIt) {
  Parsed p(R"(
define i64 @helper(i64 %a, i64 %b) {
entry:
  %m = mul i64 %a, %b
  %v = add i64 %m, 7
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @helper(i64 %x, i64 3)
  %v = add i64 %r, 1
  ret i64 %v
}
)");
  int64_t before = p.interp("top", {5});
  PassStats stats = p.runPass(createInlinerPass());
  EXPECT_EQ(stats["inline.count"], 1);
  EXPECT_EQ(stats["inline.removed"], 1);
  std::string out = p.print();
  EXPECT_EQ(out.find("call"), std::string::npos) << out;
  EXPECT_EQ(out.find("@helper"), std::string::npos) << out;
  EXPECT_EQ(p.interp("top", {5}), before);
}

TEST(Inliner, BudgetSkipIsCountedAndExplained) {
  Parsed p(R"(
define i64 @big(i64 %a) {
entry:
  %v1 = add i64 %a, 1
  %v2 = add i64 %v1, 2
  %v3 = add i64 %v2, 3
  %v4 = add i64 %v3, 4
  %v5 = add i64 %v4, 5
  ret i64 %v5
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @big(i64 %x)
  ret i64 %r
}
)");
  std::string notes;
  InlinerOptions options;
  options.sizeBudget = 3; // @big has 6 instructions
  PassStats stats = p.runPass(createInlinerPass(options), &notes);
  EXPECT_EQ(stats["inline.count"], 0);
  EXPECT_EQ(stats["inline.skipped.budget"], 1);
  EXPECT_NE(notes.find("exceeds budget"), std::string::npos) << notes;
  EXPECT_NE(notes.find("'big'"), std::string::npos) << notes;
  EXPECT_NE(p.print().find("call i64 @big"), std::string::npos);
}

TEST(Inliner, NoinlineAndExternalCalleesLeftWithNotes) {
  Parsed p(R"(
define i64 @opaque(i64 %a) #[noinline] {
entry:
  %v = add i64 %a, 1
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %a = call i64 @opaque(i64 %x)
  %b = call i64 @extern_fn(i64 %a)
  ret i64 %b
}
)");
  std::string notes;
  PassStats stats = p.runPass(createInlinerPass(), &notes);
  EXPECT_EQ(stats["inline.skipped.noinline"], 1);
  EXPECT_EQ(stats["inline.skipped.external"], 1);
  EXPECT_NE(notes.find("'noinline' callee 'opaque'"), std::string::npos)
      << notes;
  EXPECT_NE(notes.find("external 'extern_fn'"), std::string::npos) << notes;
}

TEST(Inliner, PreservedFunctionSurvivesFullInlining) {
  Parsed p(R"(
define i64 @helper(i64 %a) {
entry:
  %v = add i64 %a, 1
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @helper(i64 %x)
  ret i64 %r
}
)");
  InlinerOptions options;
  options.preservedFunction = "helper";
  PassStats stats = p.runPass(createInlinerPass(options));
  EXPECT_EQ(stats["inline.count"], 1);
  EXPECT_EQ(stats["inline.removed"], 0);
  EXPECT_NE(p.module->getFunction("helper"), nullptr);
}

// A pure noinline helper whose result is unused: the Inliner cannot
// inline it, but marks it `readnone`, which makes the leftover call
// trivially dead for the cleanup DCE that follows in the pipeline.
TEST(Inliner, ReadnoneMarkingMakesDeadCallsCollectable) {
  Parsed p(R"(
define i64 @pure(i64 %a) #[noinline] {
entry:
  %v = mul i64 %a, 3
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %unused = call i64 @pure(i64 %x)
  %v = add i64 %x, 1
  ret i64 %v
}
)");
  PassStats inlineStats = p.runPass(createInlinerPass());
  // Both @pure and (transitively) @top become readnone.
  EXPECT_GE(inlineStats["inline.readnone"], 1);
  EXPECT_TRUE(p.module->getFunction("pure")->hasAttr("readnone"));
  ASSERT_NE(p.print().find("call i64 @pure"), std::string::npos);
  PassStats dceStats = p.runPass(createDCEPass());
  EXPECT_GE(dceStats["dce.removed"], 1);
  EXPECT_EQ(p.print().find("call i64 @pure"), std::string::npos) << p.print();
}

// --- Rec2Iter -----------------------------------------------------------

TEST(Rec2Iter, FactorialRewriteIsInterpEquivalent) {
  Parsed p(kFactorialModule);
  std::vector<int64_t> before;
  for (int64_t n : {0, 1, 5, 10})
    before.push_back(p.interp("fact", {n}));
  PassStats stats = p.runPass(createRec2IterPass());
  EXPECT_EQ(stats["rec2iter.rewritten"], 1);
  std::string out = p.print();
  EXPECT_EQ(out.find("call"), std::string::npos) << out;
  size_t i = 0;
  for (int64_t n : {0, 1, 5, 10})
    EXPECT_EQ(p.interp("fact", {n}), before[i++]) << "n=" << n;
  EXPECT_EQ(p.interp("fact", {10}), 3628800);
}

TEST(Rec2Iter, FibWithDepthAttributeIsInterpEquivalent) {
  Parsed p(kFibModule);
  std::vector<int64_t> before;
  for (int64_t n : {0, 1, 2, 7, 15})
    before.push_back(p.interp("fib", {n}));
  PassStats stats = p.runPass(createRec2IterPass());
  EXPECT_EQ(stats["rec2iter.rewritten"], 1);
  EXPECT_EQ(p.print().find("call"), std::string::npos);
  size_t i = 0;
  for (int64_t n : {0, 1, 2, 7, 15})
    EXPECT_EQ(p.interp("fib", {n}), before[i++]) << "n=" << n;
  EXPECT_EQ(p.interp("fib", {15}), 610);
}

// Slot loads go in before a user in creation order (arguments, then
// instructions in program order), never in heap-address order. %b is
// parsed first and %a is then moved above it, so program order and
// allocation order disagree; %a's load must still come first.
TEST(Rec2Iter, SlotLoadsFollowProgramOrderNotAddresses) {
  Parsed p(R"(
define i64 @f(i64 %n) {
entry:
  %cmp = icmp sle i64 %n, 1
  br i1 %cmp, label %base, label %rec
base:
  ret i64 1
rec:
  %b = add i64 %n, 3
  %a = add i64 %n, 7
  %v = mul i64 %b, %a
  %n1 = sub i64 %n, 1
  %r = call i64 @f(i64 %n1)
  %w = add i64 %v, %r
  ret i64 %w
}
)");
  Function *fn = p.module->getFunction("f");
  auto named = [&](const std::string &name) -> Instruction * {
    for (BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        if (inst->name() == name)
          return inst.get();
    return nullptr;
  };
  Instruction *a = named("a");
  Instruction *b = named("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  BasicBlock *rec = b->parent();
  rec->insert(rec->positionOf(b), a->removeFromParent());
  int64_t expected = p.interp("f", {6});

  p.runPass(createRec2IterPass());
  Instruction *mul = nullptr;
  for (BasicBlock *bb : fn->blockPtrs())
    for (auto &inst : *bb)
      if (inst->opcode() == Opcode::Mul)
        mul = inst.get();
  ASSERT_NE(mul, nullptr) << p.print();
  auto *loadB = dyn_cast<Instruction>(mul->operand(0));
  auto *loadA = dyn_cast<Instruction>(mul->operand(1));
  ASSERT_NE(loadA, nullptr);
  ASSERT_NE(loadB, nullptr);
  ASSERT_EQ(loadA->opcode(), Opcode::Load);
  ASSERT_EQ(loadB->opcode(), Opcode::Load);
  ASSERT_EQ(loadA->parent(), mul->parent());
  ASSERT_EQ(loadB->parent(), mul->parent());
  BasicBlock *bb = mul->parent();
  auto index = [&](Instruction *inst) {
    return std::distance(bb->begin(), bb->positionOf(inst));
  };
  EXPECT_LT(index(loadA), index(loadB)) << p.print();
  EXPECT_LT(index(loadB), index(mul)) << p.print();
  EXPECT_EQ(p.interp("f", {6}), expected);
}

TEST(Rec2Iter, MutualRecursionIsSkippedWithNote) {
  Parsed p(R"(
define i64 @even(i64 %n) {
entry:
  %cmp = icmp eq i64 %n, 0
  br i1 %cmp, label %yes, label %rec
yes:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @odd(i64 %n1)
  ret i64 %r
}

define i64 @odd(i64 %n) {
entry:
  %cmp = icmp eq i64 %n, 0
  br i1 %cmp, label %no, label %rec
no:
  ret i64 0
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @even(i64 %n1)
  ret i64 %r
}
)");
  std::string notes;
  PassStats stats = p.runPass(createRec2IterPass(), &notes);
  EXPECT_EQ(stats["rec2iter.rewritten"], 0);
  EXPECT_GE(stats["rec2iter.skipped.mutual"], 1);
  EXPECT_NE(notes.find("mutually recursive"), std::string::npos) << notes;
}

// --- CallSitePrivatization ----------------------------------------------

TEST(CallSitePrivatization, ClonesPerDistinctBufferBinding) {
  Parsed p(R"(
define i64 @read2(i64* %buf) {
entry:
  %v = load i64, i64* %buf
  ret i64 %v
}

define i64 @top(i64* noalias %a, i64* noalias %b) {
entry:
  %x = call i64 @read2(i64* %a)
  %y = call i64 @read2(i64* %b)
  %z = call i64 @read2(i64* %a)
  %v = add i64 %x, %y
  %w = add i64 %v, %z
  ret i64 %w
}
)");
  std::string notes;
  PassStats stats = p.runPass(createCallSitePrivatizationPass(), &notes);
  // Two distinct bindings (%a, %b): the %a sites keep the original, the
  // %b site gets one clone.
  EXPECT_EQ(stats["privatize.clones"], 1);
  ASSERT_NE(p.module->getFunction("read2.priv1"), nullptr);
  std::string out = p.print();
  EXPECT_NE(out.find("call i64 @read2(i64* %a)"), std::string::npos) << out;
  EXPECT_NE(out.find("call i64 @read2.priv1(i64* %b)"), std::string::npos)
      << out;
  EXPECT_NE(notes.find("cloned 'read2' as 'read2.priv1'"),
            std::string::npos)
      << notes;
}

TEST(CallSitePrivatization, SameBindingEverywhereNeedsNoClones) {
  Parsed p(R"(
define i64 @read2(i64* %buf) {
entry:
  %v = load i64, i64* %buf
  ret i64 %v
}

define i64 @top(i64* %a) {
entry:
  %x = call i64 @read2(i64* %a)
  %y = call i64 @read2(i64* %a)
  %v = add i64 %x, %y
  ret i64 %v
}
)");
  PassStats stats = p.runPass(createCallSitePrivatizationPass());
  EXPECT_EQ(stats["privatize.clones"], 0);
  EXPECT_EQ(p.module->getFunction("read2.priv1"), nullptr);
}

// --- Full legalization pipeline ----------------------------------------

// The adaptor's call-legalization group end-to-end: recursion unrolled to
// a loop, helpers inlined, the result a single-function module that still
// computes the same values.
TEST(CallLegalization, PipelineReducesToSingleFunction) {
  Parsed p(R"(
define i64 @scale(i64 %x, i64 %k) {
entry:
  %m = mul i64 %x, %k
  %v = add i64 %m, 3
  ret i64 %v
}

define i64 @fact(i64 %n) #[mha.rec_depth=16] {
entry:
  %cmp = icmp sle i64 %n, 1
  br i1 %cmp, label %base, label %rec
base:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @fact(i64 %n1)
  %v = mul i64 %n, %r
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %n = and i64 %x, 7
  %f = call i64 @fact(i64 %n)
  %s = call i64 @scale(i64 %f, i64 5)
  ret i64 %s
}
)");
  std::vector<int64_t> before;
  for (int64_t x : {0, 3, 7, 100})
    before.push_back(p.interp("top", {x}));

  PassManager pm(/*verifyEach=*/true);
  pm.add(createRec2IterPass());
  InlinerOptions io;
  io.preservedFunction = "top";
  pm.add(createInlinerPass(io));
  pm.add(createCallSitePrivatizationPass());
  pm.add(createDCEPass());
  pm.add(createSimplifyCFGPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  EXPECT_EQ(p.module->functions().size(), 1u) << p.print();
  EXPECT_EQ(p.print().find("call"), std::string::npos) << p.print();
  size_t i = 0;
  for (int64_t x : {0, 3, 7, 100})
    EXPECT_EQ(p.interp("top", {x}), before[i++]) << "x=" << x;
}
