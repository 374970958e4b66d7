// Printer/parser round-trip tests for MiniLLVM textual IR.
#include "lir/IRBuilder.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::lir;

namespace {

/// Parses, reprints, reparses and expects fixpoint text equality.
void expectRoundTrip(const std::string &text) {
  LContext ctx1;
  DiagnosticEngine diags;
  auto m1 = parseModule(text, ctx1, diags);
  ASSERT_NE(m1, nullptr) << diags.str();
  std::string printed1 = printModule(*m1);

  LContext ctx2;
  DiagnosticEngine diags2;
  auto m2 = parseModule(printed1, ctx2, diags2);
  ASSERT_NE(m2, nullptr) << diags2.str() << "\nfirst print:\n" << printed1;
  EXPECT_EQ(printed1, printModule(*m2));

  DiagnosticEngine verifyDiags;
  EXPECT_TRUE(verifyModule(*m2, verifyDiags)) << verifyDiags.str();
}

} // namespace

TEST(LirParse, MinimalFunction) {
  expectRoundTrip(R"(
define void @f() {
entry:
  ret void
}
)");
}

TEST(LirParse, ArithmeticChain) {
  expectRoundTrip(R"(
define void @f(i64 %a, i64 %b) {
entry:
  %0 = add i64 %a, %b
  %1 = mul i64 %0, 3
  %2 = sub i64 %1, -2
  %3 = sdiv i64 %2, %a
  %4 = and i64 %3, 255
  %5 = shl i64 %4, 2
  ret void
}
)");
}

TEST(LirParse, FloatOpsAndCalls) {
  expectRoundTrip(R"(
declare double @hls_sqrt(double)

define void @f(double %x) {
entry:
  %0 = fmul double %x, 2.0
  %1 = fadd double %0, 0.5
  %2 = call double @hls_sqrt(double %1)
  %3 = fcmp olt double %2, 10.0
  %4 = select i1 %3, double %2, double 10.0
  ret void
}
)");
}

TEST(LirParse, MemoryAndGEP) {
  expectRoundTrip(R"(
define void @f([4 x [8 x double]]* %A, i64 %i) {
entry:
  %0 = getelementptr [4 x [8 x double]], [4 x [8 x double]]* %A, i64 0, i64 %i, i64 3
  %1 = load double, double* %0
  store double %1, double* %0
  ret void
}
)");
}

TEST(LirParse, OpaquePointers) {
  expectRoundTrip(R"(
!flag opaque-pointers = "true"

define void @f(ptr %p) {
entry:
  %0 = getelementptr double, ptr %p, i64 4
  %1 = load double, ptr %0
  ret void
}
)");
}

TEST(LirParse, LoopWithPhiAndMetadata) {
  expectRoundTrip(R"(
define void @f(ptr %p) {
entry:
  br label %header

header:
  %iv = phi i64 [ 0, %entry ], [ %iv.next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit

body:
  %addr = getelementptr double, ptr %p, i64 %iv
  %v = load double, ptr %addr
  store double %v, ptr %addr
  %iv.next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}, !xlx.tripcount !{i64 32}

exit:
  ret void
}
)");
}

TEST(LirParse, ArgumentAttributesAndMetadata) {
  expectRoundTrip(R"(
define void @f(ptr noalias !mha.shape !{!"f64", i64 2, i64 4, i64 4} %A, i64 %n) #[mustprogress, nofree] {
entry:
  ret void
}
)");
}

TEST(LirParse, CastsAndFreeze) {
  expectRoundTrip(R"(
define void @f(i32 %x, double %d) {
entry:
  %0 = sext i32 %x to i64
  %1 = trunc i64 %0 to i8
  %2 = sitofp i32 %x to double
  %3 = fptosi double %d to i32
  %4 = freeze i64 %0
  %5 = fneg double %2
  ret void
}
)");
}

TEST(LirParse, NestedMetadata) {
  expectRoundTrip(R"(
define void @f(ptr !xlx.array_partition !{!{i64 1, i64 4, !"cyclic"}} %A) {
entry:
  ret void
}
)");
}

TEST(LirParse, UndefAndSelect) {
  expectRoundTrip(R"(
define void @f(i1 %c) {
entry:
  %0 = select i1 %c, i64 undef, i64 9
  ret void
}
)");
}

TEST(LirParseErrors, UndefinedValue) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define void @f() {
entry:
  %0 = add i64 %missing, 1
  ret void
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("undefined value"), std::string::npos);
}

TEST(LirParseErrors, UndefinedLabel) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %done, label %nowhere
done:
  ret void
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("use of undefined label %nowhere"),
            std::string::npos)
      << diags.str();
}

TEST(LirParseErrors, RedefinedLabel) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define void @f() {
entry:
  br label %done
done:
  ret void
done:
  ret void
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("redefinition of label %done"),
            std::string::npos)
      << diags.str();
}

TEST(LirParseErrors, UnknownInstruction) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define void @f() {
entry:
  %0 = frobnicate i64 1, 2
  ret void
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_TRUE(diags.hadError());
}

TEST(LirParseErrors, BadType) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule("define void @f(quux %x) { entry: ret void }",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
}

TEST(LirPrint, BuilderOutputParsesBack) {
  // Build IR programmatically, print, and reparse.
  LContext ctx;
  Module module(ctx, "m");
  Function *fn =
      module.createFunction(ctx.fnTy(ctx.voidTy(), {ctx.opaquePtrTy()}), "k");
  module.flags()["opaque-pointers"] = "true";
  BasicBlock *entry = fn->createBlock("entry");
  IRBuilder builder(ctx);
  builder.setInsertPoint(entry);
  Instruction *gep =
      builder.createGEP(ctx.doubleTy(), fn->arg(0), {ctx.constI64(5)});
  Instruction *load = builder.createLoad(ctx.doubleTy(), gep);
  builder.createStore(load, gep);
  builder.createRet();

  std::string text = printModule(module);
  LContext ctx2;
  DiagnosticEngine diags;
  auto reparsed = parseModule(text, ctx2, diags);
  ASSERT_NE(reparsed, nullptr) << diags.str() << text;
  EXPECT_EQ(printModule(*reparsed), text);
}

// Regression: float literals used to go through std::stod, which throws
// std::out_of_range on overflow instead of reporting a parse diagnostic.
TEST(LirParseErrors, HugeFloatLiteralRejected) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define double @f() {
entry:
  %0 = fadd double 1.0e999, 0.0
  ret double %0
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("float literal"), std::string::npos);
}

TEST(LirParseErrors, HugeIntegerLiteralRejected) {
  LContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(
define i64 @f() {
entry:
  %0 = add i64 9223372036854775808, 1
  ret i64 %0
}
)",
                            ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("integer literal"), std::string::npos);
}

// Regression: the parser read function attributes one identifier at a time,
// so printed groups containing non-identifier characters — e.g. the
// lowering's #[memory(argmem: readwrite)] — failed to reparse.
TEST(LirParse, FunctionAttributeGroupsRoundTrip) {
  expectRoundTrip(R"(
define void @f() #[memory(argmem: readwrite), mha.partition.0:1:4:cyclic, mustprogress, nofree, nosync, willreturn] {
entry:
  ret void
}
)");
}

// Regression: lowering reuses fixed instruction names (one "idx.scaled" per
// array subscript). The printer used names verbatim, emitting duplicate
// %defs; the parser binds references by name, so later uses rebound to the
// wrong definition on reparse.
TEST(LirPrint, DuplicateValueNamesAreUniquifiedWhenPrinting) {
  LContext ctx;
  Module module(ctx, "m");
  module.flags()["opaque-pointers"] = "false";
  Function *fn = module.createFunction(
      ctx.fnTy(ctx.voidTy(), {ctx.i64(), ctx.i64()}), "k");
  fn->arg(0)->setName("a");
  fn->arg(1)->setName("b");
  BasicBlock *entry = fn->createBlock("entry");
  IRBuilder builder(ctx);
  builder.setInsertPoint(entry);
  Instruction *first = builder.createAdd(fn->arg(0), fn->arg(1), "idx");
  Instruction *second = builder.createAdd(first, fn->arg(1), "idx");
  builder.createAdd(first, second, "sum");
  builder.createRet();

  std::string text = printModule(module);
  EXPECT_NE(first->name(), second->name());
  LContext ctx2;
  DiagnosticEngine diags;
  auto reparsed = parseModule(text, ctx2, diags);
  ASSERT_NE(reparsed, nullptr) << diags.str() << text;
  EXPECT_EQ(printModule(*reparsed), text);
}
