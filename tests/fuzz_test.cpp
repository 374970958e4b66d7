// Tests for the differential fuzzing subsystem: generator determinism,
// oracle detection, bugpoint-style reduction, and campaign reports.
#include "fuzz/Fuzz.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Verifier.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::fuzz;

namespace {

/// Finds a seed whose generated kernel the planted oracle flags (most
/// kernels contain an fadd whose operands differ, but not all).
std::optional<std::pair<uint64_t, OracleResult>> findPlantedFailure() {
  OracleOptions oracle;
  oracle.mutateAdaptorModule = plantFAddMiscompile;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    Program program = gen.genKernel();
    OracleResult result = checkKernel(program, oracle);
    if (result.failed())
      return std::make_pair(seed, result);
  }
  return std::nullopt;
}

} // namespace

TEST(FuzzGen, KernelProgramsAreDeterministicPerSeed) {
  for (uint64_t seed : {1ull, 7ull, 12345ull}) {
    ProgramGen a(seed, GenOptions{});
    ProgramGen b(seed, GenOptions{});
    EXPECT_EQ(a.genKernel().describe(), b.genKernel().describe());
  }
  ProgramGen a(1, GenOptions{});
  ProgramGen b(2, GenOptions{});
  EXPECT_NE(a.genKernel().describe(), b.genKernel().describe());
}

TEST(FuzzGen, IrProgramsAreDeterministicPerSeed) {
  for (uint64_t seed : {1ull, 9ull, 424242ull}) {
    ProgramGen a(seed, GenOptions{});
    ProgramGen b(seed, GenOptions{});
    EXPECT_EQ(a.genIr().lir(), b.genIr().lir());
  }
  ProgramGen a(3, GenOptions{});
  ProgramGen b(4, GenOptions{});
  EXPECT_NE(a.genIr().lir(), b.genIr().lir());
}

TEST(FuzzGen, IrProgramsParseAndVerify) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    IrProgram program = gen.genIr();
    lir::LContext ctx;
    DiagnosticEngine diags;
    auto module = lir::parseModule(program.lir(), ctx, diags);
    ASSERT_NE(module, nullptr)
        << "seed " << seed << ": " << diags.str() << "\n" << program.lir();
  }
}

TEST(FuzzGen, DeriveProgramSeedDecorrelatesPositions) {
  EXPECT_EQ(deriveProgramSeed(1, 0), deriveProgramSeed(1, 0));
  EXPECT_NE(deriveProgramSeed(1, 0), deriveProgramSeed(1, 1));
  EXPECT_NE(deriveProgramSeed(1, 0), deriveProgramSeed(2, 0));
}

TEST(FuzzOracle, CleanOnSmallSeeds) {
  OracleOptions oracle;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    OracleResult kr = checkKernel(gen.genKernel(), oracle);
    EXPECT_TRUE(kr.ok) << "kernel seed " << seed << ": "
                       << failureKindName(kr.kind) << " at " << kr.stage
                       << ": " << kr.detail;
    OracleResult ir = checkIr(gen.genIr(), oracle);
    EXPECT_TRUE(ir.ok) << "ir seed " << seed << ": "
                       << failureKindName(ir.kind) << " at " << ir.stage
                       << ": " << ir.detail;
  }
}

TEST(FuzzOracle, CatchesPlantedMiscompile) {
  auto found = findPlantedFailure();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->second.kind, FailureKind::Mismatch);
  EXPECT_EQ(found->second.stage, "adaptor");
}

TEST(FuzzReducer, ShrinksPlantedMiscompileKeepingTheFailure) {
  auto found = findPlantedFailure();
  ASSERT_TRUE(found.has_value());
  OracleOptions oracle;
  oracle.mutateAdaptorModule = plantFAddMiscompile;
  ProgramGen gen(found->first, GenOptions{});
  Program program = gen.genKernel();
  ReductionTrace trace;
  Program reduced =
      reduceKernel(program, found->second, oracle, ReducerOptions{}, &trace);
  EXPECT_LE(reduced.size(), 10u) << reduced.describe();
  EXPECT_LE(reduced.size(), program.size());
  EXPECT_EQ(trace.finalSize, reduced.size());
  // The reduced program still reproduces the same failure signature.
  OracleResult again = checkKernel(reduced, oracle);
  EXPECT_TRUE(again.sameFailure(found->second))
      << failureKindName(again.kind) << " at " << again.stage;
}

TEST(FuzzCampaign, CleanRunProducesValidReport) {
  FuzzOptions options;
  options.budget = 15;
  options.seed = 1;
  FuzzReport report = runFuzz(options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.kernelPrograms, 15u);
  EXPECT_EQ(report.irPrograms, 15u);
  std::string text = report.json();
  std::string error;
  EXPECT_TRUE(json::validate(text, &error)) << error << "\n" << text;
  auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->get("schema"), nullptr);
  EXPECT_EQ(doc->get("schema")->asString(), "mha.fuzz.v1");
}

TEST(FuzzCampaign, ParallelMatchesSerial) {
  FuzzOptions serial;
  serial.budget = 10;
  serial.seed = 3;
  serial.jobs = 1;
  FuzzOptions parallel = serial;
  parallel.jobs = 4;
  FuzzReport a = runFuzz(serial);
  FuzzReport b = runFuzz(parallel);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_TRUE(a.clean());
  EXPECT_TRUE(b.clean());
}

TEST(FuzzCampaign, PlantedFailureIsReportedReducedAndReplayable) {
  FuzzOptions options;
  options.budget = 40;
  options.seed = 1;
  options.mode = FuzzOptions::Mode::Kernel;
  options.oracle.mutateAdaptorModule = plantFAddMiscompile;
  FuzzReport report = runFuzz(options);
  ASSERT_FALSE(report.clean());
  const FuzzFailure &failure = report.failures.front();
  EXPECT_EQ(failure.result.kind, FailureKind::Mismatch);
  EXPECT_EQ(failure.result.stage, "adaptor");
  EXPECT_LE(failure.reducedSize, 10u) << failure.reducedDescription;

  // The minimized LIR artifact is parseable on its own.
  ASSERT_FALSE(failure.reducedLir.empty());
  lir::LContext ctx;
  DiagnosticEngine diags;
  EXPECT_NE(lir::parseModule(failure.reducedLir, ctx, diags), nullptr)
      << diags.str() << "\n" << failure.reducedLir;

  // The embedded reproducer document replays to the same failure.
  std::string repro = failure.reproJson(options.gen);
  std::string error;
  EXPECT_TRUE(json::validate(repro, &error)) << error;
  std::optional<FuzzFailure> replayed = replayRepro(repro, options, error);
  ASSERT_TRUE(replayed.has_value()) << error;
  EXPECT_TRUE(replayed->result.sameFailure(failure.result));
  EXPECT_EQ(replayed->programSeed, failure.programSeed);

  // Replaying without the planted mutation is the "bug got fixed" outcome:
  // no failure, but distinguishable from a malformed document.
  FuzzOptions fixed = options;
  fixed.oracle.mutateAdaptorModule = nullptr;
  bool noLongerFails = false;
  EXPECT_FALSE(replayRepro(repro, fixed, error, &noLongerFails).has_value());
  EXPECT_TRUE(noLongerFails);
}

TEST(FuzzCampaign, ReplayRejectsMalformedDocuments) {
  FuzzOptions options;
  std::string error;
  EXPECT_FALSE(replayRepro("not json", options, error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      replayRepro(R"({"schema":"mha.fuzz.v0"})", options, error).has_value());
  EXPECT_FALSE(replayRepro(
                   R"({"schema":"mha.fuzz.repro.v1","mode":"kernel","seed":7})",
                   options, error)
                   .has_value());
  EXPECT_NE(error.find("seed"), std::string::npos);
  // Generator options must be ints: an out-of-range or fractional field
  // is refused by name instead of being cast into some other program.
  for (const char *bad : {"1e10", "2.5", "\"3\""}) {
    std::string repro =
        std::string(R"({"schema":"mha.fuzz.repro.v1","mode":"kernel",)"
                    R"("seed":"7","gen":{"maxLoopDepth":2,"maxStmts":)") +
        bad + "}}";
    error.clear();
    EXPECT_FALSE(replayRepro(repro, options, error).has_value()) << bad;
    EXPECT_NE(error.find("'maxStmts'"), std::string::npos) << error;
  }
}

// --- Calls mode ---------------------------------------------------------

namespace {

std::optional<std::pair<uint64_t, OracleResult>> findPlantedCallsFailure() {
  OracleOptions oracle;
  oracle.runVhls = false;
  oracle.mutateAdaptorModule = plantAddMiscompile;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    CallProgram program = gen.genCalls();
    OracleResult result = checkCalls(program, oracle);
    if (result.failed())
      return std::make_pair(seed, result);
  }
  return std::nullopt;
}

} // namespace

TEST(FuzzGen, CallsProgramsAreDeterministicPerSeed) {
  for (uint64_t seed : {1ull, 7ull, 424242ull}) {
    ProgramGen a(seed, GenOptions{});
    ProgramGen b(seed, GenOptions{});
    EXPECT_EQ(a.genCalls().lir(), b.genCalls().lir());
  }
  ProgramGen a(1, GenOptions{});
  ProgramGen b(2, GenOptions{});
  EXPECT_NE(a.genCalls().lir(), b.genCalls().lir());
}

TEST(FuzzGen, CallsProgramsParseVerifyAndDescribe) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    CallProgram program = gen.genCalls();
    lir::LContext ctx;
    DiagnosticEngine diags;
    auto module = lir::parseModule(program.lir(), ctx, diags);
    ASSERT_NE(module, nullptr) << "seed " << seed << ": " << diags.str()
                               << "\n" << program.lir();
    EXPECT_TRUE(lir::verifyModule(*module, diags))
        << "seed " << seed << ": " << diags.str();
    EXPECT_NE(module->getFunction("fuzz_calls"), nullptr);
    EXPECT_FALSE(program.describe().empty());
    EXPECT_GT(program.size(), 0u);
  }
}

TEST(FuzzOracle, CallsCleanOnSmallSeeds) {
  OracleOptions oracle;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramGen gen(seed, GenOptions{});
    OracleResult result = checkCalls(gen.genCalls(), oracle);
    EXPECT_TRUE(result.ok) << "calls seed " << seed << ": "
                           << failureKindName(result.kind) << " at "
                           << result.stage << ": " << result.detail;
  }
}

TEST(FuzzOracle, CallsCatchesPlantedMiscompile) {
  auto found = findPlantedCallsFailure();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->second.kind, FailureKind::Mismatch);
  EXPECT_EQ(found->second.stage, "call-legalize");
}

TEST(FuzzReducer, ShrinksPlantedCallsMiscompileKeepingTheFailure) {
  auto found = findPlantedCallsFailure();
  ASSERT_TRUE(found.has_value());
  OracleOptions oracle;
  oracle.runVhls = false;
  oracle.mutateAdaptorModule = plantAddMiscompile;
  ProgramGen gen(found->first, GenOptions{});
  CallProgram program = gen.genCalls();
  ReductionTrace trace;
  CallProgram reduced =
      reduceCalls(program, found->second, oracle, ReducerOptions{}, &trace);
  EXPECT_LE(reduced.size(), program.size());
  EXPECT_EQ(trace.finalSize, reduced.size());
  OracleResult again = checkCalls(reduced, oracle);
  EXPECT_TRUE(again.sameFailure(found->second))
      << failureKindName(again.kind) << " at " << again.stage;
}

TEST(FuzzCampaign, CallsModeRunsCleanAndReports) {
  FuzzOptions options;
  options.budget = 20;
  options.seed = 5;
  options.mode = FuzzOptions::Mode::Calls;
  FuzzReport report = runFuzz(options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.callsPrograms, 20u);
  EXPECT_EQ(report.kernelPrograms, 0u);
  EXPECT_EQ(report.irPrograms, 0u);
  std::string text = report.json();
  std::string error;
  EXPECT_TRUE(json::validate(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"calls\""), std::string::npos);
}

TEST(FuzzCampaign, AllModeCoversEveryGenerator) {
  FuzzOptions options;
  options.budget = 5;
  options.seed = 2;
  options.mode = FuzzOptions::Mode::All;
  FuzzReport report = runFuzz(options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.kernelPrograms, 5u);
  EXPECT_EQ(report.irPrograms, 5u);
  EXPECT_EQ(report.callsPrograms, 5u);
}
