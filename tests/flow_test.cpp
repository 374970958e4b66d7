// End-to-end flow tests: every kernel goes through both flows, is accepted
// by the virtual HLS frontend, co-simulates bit-exactly, and the two flows
// produce comparable results (the paper's headline claim).
#include "flow/Flow.h"
#include "flow/StageCache.h"
#include "interp/Interp.h"
#include "lir/Parser.h"
#include "lir/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace mha;
using namespace mha::flow;

namespace {

class AllKernels : public ::testing::TestWithParam<std::string> {
protected:
  const KernelSpec &spec() { return *findKernel(GetParam()); }
};

std::vector<std::string> kernelNames() {
  std::vector<std::string> names;
  for (const KernelSpec &spec : allKernels())
    names.push_back(spec.name);
  return names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Kernels, AllKernels,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &info) {
                           std::string name = info.param;
                           for (char &c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

TEST_P(AllKernels, AdaptorFlowAcceptedAndCorrect) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult result = runAdaptorFlow(spec(), config);
  ASSERT_TRUE(result.ok) << result.diagnostics;
  EXPECT_TRUE(result.synth.accepted);
  EXPECT_EQ(result.synth.compat.warnings, 0) << result.diagnostics;
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(result, spec(), error)) << error;
}

TEST_P(AllKernels, HlsCppFlowAcceptedAndCorrect) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult result = runHlsCppFlow(spec(), config);
  ASSERT_TRUE(result.ok) << result.diagnostics << "\n" << result.hlsCpp;
  EXPECT_TRUE(result.synth.accepted);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(result, spec(), error)) << error;
}

TEST_P(AllKernels, FlowsProduceComparableLatency) {
  // The paper's claim: the adaptor flow performs comparably to the HLS C++
  // flow. Enforce a generous band (within 25% either way).
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult adaptorResult = runAdaptorFlow(spec(), config);
  FlowResult cppResult = runHlsCppFlow(spec(), config);
  ASSERT_TRUE(adaptorResult.ok) << adaptorResult.diagnostics;
  ASSERT_TRUE(cppResult.ok) << cppResult.diagnostics;
  double a = static_cast<double>(adaptorResult.synth.top()->latencyCycles);
  double c = static_cast<double>(cppResult.synth.top()->latencyCycles);
  EXPECT_GT(a, 0);
  EXPECT_GT(c, 0);
  double ratio = a / c;
  EXPECT_GT(ratio, 0.75) << "adaptor=" << a << " hls-c++=" << c;
  EXPECT_LT(ratio, 1.25) << "adaptor=" << a << " hls-c++=" << c;
}

TEST_P(AllKernels, UnoptimizedBaselineIsSlower) {
  KernelConfig plain;
  plain.applyDirectives = false;
  KernelConfig optimized;
  optimized.pipelineII = 1;
  optimized.partitionFactor = 2;
  FlowResult baseline = runAdaptorFlow(spec(), plain);
  FlowResult tuned = runAdaptorFlow(spec(), optimized);
  ASSERT_TRUE(baseline.ok) << baseline.diagnostics;
  ASSERT_TRUE(tuned.ok) << tuned.diagnostics;
  // Directives must never make things slower.
  EXPECT_LE(tuned.synth.top()->latencyCycles,
            baseline.synth.top()->latencyCycles);
}

TEST(Flow, AdaptorStatsPopulated) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 4;
  FlowResult result = runAdaptorFlow(*findKernel("gemm"), config);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.adaptorStats.at("adaptor.descriptors-eliminated"), 3);
  EXPECT_GT(result.adaptorStats.at("adaptor.geps-delinearized"), 0);
  EXPECT_GT(result.adaptorStats.at("adaptor.loop-directives-converted"), 0);
  EXPECT_EQ(result.adaptorStats.at("compat.errors"), 0);
}

TEST(Flow, TimingsRecorded) {
  FlowResult result = runAdaptorFlow(*findKernel("fir"), {});
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.timings.totalMs, 0);
  EXPECT_GE(result.timings.totalMs,
            result.timings.mlirOptMs + result.timings.bridgeMs);
}

TEST(Flow, TimingWindowsAreSymmetricAcrossFlows) {
  // Table 4 compares compile time per stage, so both flows must charge
  // the same work to mlirOptMs: exactly the shared MLIR preparation.
  // Flow-specific legs (the adaptor flow's affine->scf conversion, the
  // C++ flow's emission) belong to bridgeMs.
  FlowResult a = runAdaptorFlow(*findKernel("gemm"), {});
  FlowResult c = runHlsCppFlow(*findKernel("gemm"), {});
  ASSERT_TRUE(a.ok && c.ok) << a.diagnostics << c.diagnostics;

  auto stageNames = [](const FlowResult &result, const char *stage) {
    std::vector<std::string> names;
    for (const StageSpan &span : result.spans)
      if (span.stage == stage)
        names.push_back(span.name);
    return names;
  };
  EXPECT_EQ(stageNames(a, "mlirOpt"), stageNames(c, "mlirOpt"));
  EXPECT_EQ(stageNames(a, "mlirOpt"),
            std::vector<std::string>{"prepare-mlir"});
  std::vector<std::string> bridge = stageNames(a, "bridge");
  EXPECT_NE(std::find(bridge.begin(), bridge.end(), "affine-to-scf"),
            bridge.end())
      << "scf conversion must be charged to the bridge window";

  // Each stage window covers at least the spans attributed to it.
  for (const FlowResult *result : {&a, &c}) {
    double mlirSpanMs = 0, bridgeSpanMs = 0;
    for (const StageSpan &span : result->spans) {
      if (span.stage == "mlirOpt")
        mlirSpanMs += span.ms;
      if (span.stage == "bridge")
        bridgeSpanMs += span.ms;
    }
    EXPECT_GE(result->timings.mlirOptMs, mlirSpanMs - 0.5);
    EXPECT_GE(result->timings.bridgeMs, bridgeSpanMs - 0.5);
  }
}

TEST(Flow, HlsCppFlowEmitsCode) {
  FlowResult result = runHlsCppFlow(*findKernel("fir"), {});
  ASSERT_TRUE(result.ok);
  EXPECT_NE(result.hlsCpp.find("void fir("), std::string::npos);
  // The adaptor flow never emits C++.
  FlowResult adaptorResult = runAdaptorFlow(*findKernel("fir"), {});
  EXPECT_TRUE(adaptorResult.hlsCpp.empty());
}

TEST(Flow, PipelineIIRespondsToDirective) {
  KernelConfig fast;
  fast.pipelineII = 1;
  KernelConfig slow;
  slow.pipelineII = 8;
  FlowResult fastResult = runAdaptorFlow(*findKernel("conv2d"), fast);
  FlowResult slowResult = runAdaptorFlow(*findKernel("conv2d"), slow);
  ASSERT_TRUE(fastResult.ok && slowResult.ok);
  auto innerII = [](const FlowResult &r) {
    int64_t ii = 0;
    for (const auto &loop : r.synth.top()->loops)
      if (loop.pipelined)
        ii = std::max(ii, loop.achievedII);
    return ii;
  };
  EXPECT_GE(innerII(slowResult), innerII(fastResult));
  EXPECT_GE(innerII(slowResult), 8);
}

TEST(Flow, PartitioningImprovesOrMatchesLatency) {
  KernelConfig one;
  one.pipelineII = 1;
  one.unrollFactor = 4;
  one.partitionFactor = 1;
  KernelConfig four = one;
  four.partitionFactor = 4;
  FlowResult p1 = runAdaptorFlow(*findKernel("gemm"), one);
  FlowResult p4 = runAdaptorFlow(*findKernel("gemm"), four);
  ASSERT_TRUE(p1.ok && p4.ok);
  EXPECT_LE(p4.synth.top()->latencyCycles, p1.synth.top()->latencyCycles);
}

TEST(Flow, DataflowOverlapsMvt) {
  KernelConfig off;
  off.pipelineII = 1;
  KernelConfig on = off;
  on.dataflow = true;
  FlowResult plain = runAdaptorFlow(*findKernel("mvt"), off);
  FlowResult df = runAdaptorFlow(*findKernel("mvt"), on);
  ASSERT_TRUE(plain.ok && df.ok) << plain.diagnostics << df.diagnostics;
  EXPECT_TRUE(df.synth.top()->dataflow);
  EXPECT_FALSE(plain.synth.top()->dataflow);
  // mvt's two nests are symmetric: dataflow halves the latency (~2x).
  double speedup = static_cast<double>(plain.synth.top()->latencyCycles) /
                   static_cast<double>(df.synth.top()->latencyCycles);
  EXPECT_GT(speedup, 1.8);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(df, *findKernel("mvt"), error)) << error;
}

TEST(Flow, DataflowMatchesAcrossFlows) {
  KernelConfig config;
  config.pipelineII = 1;
  config.dataflow = true;
  FlowResult a = runAdaptorFlow(*findKernel("mm2"), config);
  FlowResult c = runHlsCppFlow(*findKernel("mm2"), config);
  ASSERT_TRUE(a.ok && c.ok) << a.diagnostics << c.diagnostics;
  EXPECT_EQ(a.synth.top()->latencyCycles, c.synth.top()->latencyCycles);
  EXPECT_TRUE(a.synth.top()->dataflow);
  EXPECT_TRUE(c.synth.top()->dataflow);
}

TEST(Flow, MlirLevelUnrollMatchesBackendUnroll) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 4;
  config.partitionFactor = 4;
  FlowOptions backend;
  FlowOptions mlirLevel;
  mlirLevel.unrollAtMlirLevel = true;
  for (const char *name : {"jacobi2d", "conv2d"}) {
    FlowResult b = runAdaptorFlow(*findKernel(name), config, backend);
    FlowResult m = runAdaptorFlow(*findKernel(name), config, mlirLevel);
    ASSERT_TRUE(b.ok && m.ok) << name;
    EXPECT_EQ(b.synth.top()->latencyCycles, m.synth.top()->latencyCycles)
        << name;
    std::string error;
    EXPECT_TRUE(cosimAgainstReference(m, *findKernel(name), error))
        << name << ": " << error;
  }
}

TEST(Flow, MlirLevelUnrollThroughCppFlow) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 4;
  config.partitionFactor = 4;
  FlowOptions mlirLevel;
  mlirLevel.unrollAtMlirLevel = true;
  FlowResult m = runHlsCppFlow(*findKernel("jacobi2d"), config, mlirLevel);
  ASSERT_TRUE(m.ok) << m.diagnostics;
  // The emitted C++ carries the pre-unrolled body: no unroll pragma left.
  EXPECT_EQ(m.hlsCpp.find("unroll"), std::string::npos);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(m, *findKernel("jacobi2d"), error))
      << error;
}

// --- Stage-boundary contract: span sequences and cache traffic ---------

namespace {

/// A one-function module for the direct-LIR entry. The adaptor deletes
/// the dead `%unused`, so its output differs from the input.
const char *kLirInput = R"(
define void @scale16([16 x i64]* noalias %out) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 16
  br i1 %cmp, label %body, label %exit
body:
  %unused = add i64 %iv, 7
  %v = mul i64 %iv, 3
  %p = getelementptr [16 x i64], [16 x i64]* %out, i64 0, i64 %iv
  store i64 %v, i64* %p
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)";

enum class Entry { Adaptor, HlsCpp, Lir };

FlowResult runEntry(Entry entry, const FlowOptions &options) {
  switch (entry) {
  case Entry::Adaptor:
    return runAdaptorFlow(*findKernel("gemm"), {}, options);
  case Entry::HlsCpp:
    return runHlsCppFlow(*findKernel("gemm"), {}, options);
  case Entry::Lir:
    return runLirAdaptorFlow(kLirInput, "scale16", options);
  }
  return {};
}

/// Per-stage cache traffic: {mlir, bridge, synth} x {hits, misses}.
using CacheTraffic = std::array<int64_t, 6>;

CacheTraffic cacheTraffic() {
  StageCache::Counters c = StageCache::global().counters();
  CacheTraffic traffic;
  for (size_t i = 0; i < StageCache::kNumStages; ++i) {
    traffic[2 * i] = c.stages[i].hits;
    traffic[2 * i + 1] = c.stages[i].misses;
  }
  return traffic;
}

CacheTraffic operator-(const CacheTraffic &a, const CacheTraffic &b) {
  CacheTraffic d;
  for (size_t i = 0; i < d.size(); ++i)
    d[i] = a[i] - b[i];
  return d;
}

using SpanList = std::vector<std::pair<std::string, std::string>>;

SpanList spanList(const FlowResult &result) {
  SpanList list;
  for (const StageSpan &span : result.spans)
    list.emplace_back(span.stage, span.name);
  return list;
}

/// How the run meets the cache: off, a cold chain, a fully warm chain
/// (no IR work: the bridge hit keeps its lir text unparsed), a warm mlir
/// stage under a bridge option edit (the bridge misses and must reparse
/// the cached mir text; the pipeline prints the same lir, so the
/// content-addressed synth stage still hits), or a warm chain under a
/// synthesis option edit (the synth miss parses the cached lir, once).
enum class Temperature { Off, Cold, Warm, BridgeEdit, SynthEdit };

struct SpanCase {
  const char *label;
  Entry entry;
  Temperature temperature;
  SpanList spans;
  CacheTraffic traffic; // mlir hit/miss, bridge hit/miss, synth hit/miss
};

const std::vector<SpanCase> &spanCases() {
  static const std::vector<SpanCase> cases = {
      {"adaptor_off", Entry::Adaptor, Temperature::Off,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "affine-to-scf"},
        {"bridge", "lower-to-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {0, 0, 0, 0, 0, 0}},
      {"adaptor_cold", Entry::Adaptor, Temperature::Cold,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "affine-to-scf"},
        {"bridge", "lower-to-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {0, 1, 0, 1, 0, 1}},
      {"adaptor_warm", Entry::Adaptor, Temperature::Warm,
       {{"mlirOpt", "prepare-mlir"}, {"synth", "vhls"}},
       {1, 0, 1, 0, 1, 0}},
      {"adaptor_bridge_edit", Entry::Adaptor, Temperature::BridgeEdit,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "parse-cached-mlir"},
        {"bridge", "affine-to-scf"},
        {"bridge", "lower-to-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {1, 0, 0, 1, 1, 0}},
      {"adaptor_synth_edit", Entry::Adaptor, Temperature::SynthEdit,
       {{"mlirOpt", "prepare-mlir"},
        {"synth", "bridge-cache-restore"},
        {"synth", "vhls"}},
       {1, 0, 1, 0, 0, 1}},
      {"hlscpp_off", Entry::HlsCpp, Temperature::Off,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "emit-hls-cpp"},
        {"bridge", "hls-frontend"},
        {"synth", "vhls"}},
       {0, 0, 0, 0, 0, 0}},
      {"hlscpp_cold", Entry::HlsCpp, Temperature::Cold,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "emit-hls-cpp"},
        {"bridge", "hls-frontend"},
        {"synth", "vhls"}},
       {0, 1, 0, 1, 0, 1}},
      {"hlscpp_warm", Entry::HlsCpp, Temperature::Warm,
       {{"mlirOpt", "prepare-mlir"}, {"synth", "vhls"}},
       {1, 0, 1, 0, 1, 0}},
      {"lir_off", Entry::Lir, Temperature::Off,
       {{"bridge", "parse-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {0, 0, 0, 0, 0, 0}},
      {"lir_cold", Entry::Lir, Temperature::Cold,
       {{"bridge", "parse-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {0, 0, 0, 1, 0, 1}},
      {"lir_warm", Entry::Lir, Temperature::Warm,
       {{"bridge", "parse-lir"}, {"synth", "vhls"}},
       {0, 0, 1, 0, 1, 0}},
  };
  return cases;
}

// Prints a case by its label, so test names stay stable across builds.
void PrintTo(const SpanCase &c, std::ostream *os) { *os << c.label; }

class FlowSpans : public ::testing::TestWithParam<SpanCase> {};

} // namespace

INSTANTIATE_TEST_SUITE_P(Entries, FlowSpans, ::testing::ValuesIn(spanCases()),
                         [](const auto &info) {
                           return std::string(info.param.label);
                         });

TEST_P(FlowSpans, PinsSpanSequenceAndCacheTraffic) {
  const SpanCase &c = GetParam();
  FlowOptions options;
  options.useStageCache = c.temperature != Temperature::Off;
  StageCache::global().clear();
  if (c.temperature != Temperature::Off &&
      c.temperature != Temperature::Cold) {
    FlowResult seed = runEntry(c.entry, options);
    ASSERT_TRUE(seed.ok) << seed.diagnostics;
  }
  if (c.temperature == Temperature::BridgeEdit)
    options.adaptor.inlineBudget = 255;
  if (c.temperature == Temperature::SynthEdit)
    options.synthesis.target.clockPeriodNs = 5.0;

  CacheTraffic before = cacheTraffic();
  FlowResult result = runEntry(c.entry, options);
  ASSERT_TRUE(result.ok) << result.diagnostics;
  EXPECT_EQ(spanList(result), c.spans);
  EXPECT_EQ(cacheTraffic() - before, c.traffic);
  EXPECT_EQ(result.synthFromCache, c.traffic[4] == 1);
  StageCache::global().clear();
}

// The mlir entry carries both bridge keys' hash states, so an hls-c++
// flow after an adaptor flow hits the mlir row and keys its own bridge
// from the entry's hls-c++ state; the bridge entry carries the synth
// state. Every warm row then hits, and each result matches a cache-off run.
TEST(Flow, WarmKeysResumeFromStatesSavedWithEachText) {
  StageCache::global().clear();
  FlowOptions cached;
  cached.useStageCache = true;
  const FlowResult adaptorOff = runEntry(Entry::Adaptor, {});
  const FlowResult hlsCppOff = runEntry(Entry::HlsCpp, {});
  ASSERT_TRUE(adaptorOff.ok && hlsCppOff.ok);

  CacheTraffic before = cacheTraffic();
  FlowResult adaptor = runEntry(Entry::Adaptor, cached);
  ASSERT_TRUE(adaptor.ok) << adaptor.diagnostics;
  EXPECT_EQ(cacheTraffic() - before, (CacheTraffic{0, 1, 0, 1, 0, 1}));

  before = cacheTraffic();
  FlowResult hlsCpp = runEntry(Entry::HlsCpp, cached);
  ASSERT_TRUE(hlsCpp.ok) << hlsCpp.diagnostics;
  EXPECT_EQ(cacheTraffic() - before, (CacheTraffic{1, 0, 0, 1, 0, 1}));
  EXPECT_EQ(hlsCpp.synth.json(), hlsCppOff.synth.json());

  for (Entry entry : {Entry::Adaptor, Entry::HlsCpp}) {
    before = cacheTraffic();
    FlowResult warm = runEntry(entry, cached);
    ASSERT_TRUE(warm.ok) << warm.diagnostics;
    EXPECT_EQ(cacheTraffic() - before, (CacheTraffic{1, 0, 1, 0, 1, 0}));
    EXPECT_EQ(warm.synth.json(), (entry == Entry::Adaptor ? adaptorOff
                                                          : hlsCppOff)
                                     .synth.json());
  }
  StageCache::global().clear();
}

// Cooperative cancellation at every stage boundary: the flag, set from
// onStage(s), stops the run before the next stage; the stages that
// completed stay cached, so a rerun hits exactly them.
TEST(Flow, CancelAtEveryStageBoundaryKeepsCompletedStagesCached) {
  struct EntryStages {
    Entry entry;
    std::vector<std::string> stages;
    std::vector<size_t> trafficSlots; // CacheTraffic hit slot per stage
  };
  const std::vector<EntryStages> entries = {
      {Entry::Adaptor, {"mlirOpt", "bridge", "synth"}, {0, 2, 4}},
      {Entry::HlsCpp, {"mlirOpt", "bridge", "synth"}, {0, 2, 4}},
      {Entry::Lir, {"bridge", "synth"}, {2, 4}},
  };
  for (const EntryStages &e : entries) {
    for (size_t stop = 0; stop + 1 < e.stages.size(); ++stop) {
      SCOPED_TRACE(e.stages[stop] + " of entry " +
                   std::to_string(static_cast<int>(e.entry)));
      StageCache::global().clear();
      std::atomic<bool> cancel{false};
      std::vector<std::string> seen;
      FlowOptions options;
      options.useStageCache = true;
      options.cancelFlag = &cancel;
      options.onStage = [&](const char *stage) {
        seen.push_back(stage);
        if (stage == e.stages[stop])
          cancel.store(true);
      };
      FlowResult cancelled = runEntry(e.entry, options);
      EXPECT_TRUE(cancelled.cancelled);
      EXPECT_FALSE(cancelled.ok);
      EXPECT_EQ(cancelled.diagnostics,
                "flow cancelled before " + e.stages[stop + 1] + " stage");
      EXPECT_EQ(seen, std::vector<std::string>(e.stages.begin(),
                                               e.stages.begin() + stop + 1));
      const StageTimings &t = cancelled.timings;
      EXPECT_GT(t.totalMs, 0);
      EXPECT_GE(t.totalMs, t.mlirOptMs + t.bridgeMs + t.synthMs);

      // The rerun hits every completed stage and misses the rest.
      FlowOptions rerun;
      rerun.useStageCache = true;
      CacheTraffic before = cacheTraffic();
      FlowResult finished = runEntry(e.entry, rerun);
      ASSERT_TRUE(finished.ok) << finished.diagnostics;
      CacheTraffic traffic = cacheTraffic() - before;
      for (size_t i = 0; i < e.stages.size(); ++i) {
        size_t slot = e.trafficSlots[i];
        EXPECT_EQ(traffic[slot], i <= stop ? 1 : 0) << e.stages[i];
        EXPECT_EQ(traffic[slot + 1], i <= stop ? 0 : 1) << e.stages[i];
      }
    }
  }
  StageCache::global().clear();
}

TEST(Flow, CancelDuringLastStageStillCompletes) {
  // No boundary follows synth: a flag raised while it runs is not seen.
  std::atomic<bool> cancel{false};
  FlowOptions options;
  options.cancelFlag = &cancel;
  options.onStage = [&](const char *stage) {
    if (std::string(stage) == "synth")
      cancel.store(true);
  };
  FlowResult result = runEntry(Entry::Adaptor, options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  EXPECT_FALSE(result.cancelled);
}

// A full hit does no IR work: the result keeps the cached lir text until
// something asks for the module, which is then the bridge-state module the
// cold run built — never the direct-LIR entry's pre-adaptor input.
namespace {

/// printModule(parseModule(text)), or the parse diagnostics.
std::string reparse(const std::string &text) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  std::unique_ptr<lir::Module> module = lir::parseModule(text, ctx, diags);
  EXPECT_NE(module, nullptr) << diags.str();
  return module ? lir::printModule(*module) : diags.str();
}

} // namespace

TEST(Flow, PrintedModulesRoundTripThroughParser) {
  // The bridge text a cold adaptor flow caches parses back to itself...
  for (const char *kernel : {"gemm", "conv2d"}) {
    SCOPED_TRACE(kernel);
    std::atomic<bool> cancel{false};
    FlowOptions stopBeforeSynth;
    stopBeforeSynth.cancelFlag = &cancel;
    stopBeforeSynth.onStage = [&](const char *stage) {
      if (std::string(stage) == "bridge")
        cancel.store(true);
    };
    FlowResult cold = runAdaptorFlow(*findKernel(kernel), {}, stopBeforeSynth);
    ASSERT_TRUE(cold.moduleBuilt());
    const std::string text = lir::printModule(*cold.module());
    EXPECT_EQ(reparse(text), text);
  }
  // ...and so does the printed form of every .lir test input.
  int inputs = 0;
  for (const auto &file :
       std::filesystem::directory_iterator(MHA_TESTDATA_DIR)) {
    if (file.path().extension() != ".lir")
      continue;
    SCOPED_TRACE(file.path().string());
    std::ifstream in(file.path());
    std::stringstream source;
    source << in.rdbuf();
    const std::string text = reparse(source.str());
    EXPECT_EQ(reparse(text), text);
    ++inputs;
  }
  EXPECT_GT(inputs, 0);
}

TEST(Flow, FullHitBuildsModuleOnFirstUse) {
  for (Entry entry : {Entry::Adaptor, Entry::HlsCpp, Entry::Lir}) {
    SCOPED_TRACE("entry " + std::to_string(static_cast<int>(entry)));
    StageCache::global().clear();
    FlowOptions options;
    options.useStageCache = true;

    // A cold run stopped before synth holds the bridge output untouched.
    std::atomic<bool> cancel{false};
    FlowOptions stopBeforeSynth = options;
    stopBeforeSynth.cancelFlag = &cancel;
    stopBeforeSynth.onStage = [&](const char *stage) {
      if (std::string(stage) == "bridge")
        cancel.store(true);
    };
    FlowResult cold = runEntry(entry, stopBeforeSynth);
    ASSERT_TRUE(cold.cancelled);
    ASSERT_TRUE(cold.moduleBuilt());
    const std::string bridgeText = lir::printModule(*cold.module());
    if (entry == Entry::Lir) {
      ASSERT_EQ(bridgeText.find("%unused"), std::string::npos)
          << "the bridge must have run dce";
    }

    FlowResult synthMiss = runEntry(entry, options);
    ASSERT_TRUE(synthMiss.ok) << synthMiss.diagnostics;
    EXPECT_FALSE(synthMiss.synthFromCache);
    EXPECT_TRUE(synthMiss.moduleBuilt());

    FlowResult warm = runEntry(entry, options);
    ASSERT_TRUE(warm.ok) << warm.diagnostics;
    EXPECT_TRUE(warm.synthFromCache);
    EXPECT_FALSE(warm.moduleBuilt());
    std::string error;
    lir::Function *top = warm.topFunction(&error);
    ASSERT_NE(top, nullptr) << error;
    EXPECT_TRUE(warm.moduleBuilt());
    EXPECT_EQ(lir::printModule(*warm.module()), bridgeText);

    if (entry != Entry::Lir) {
      EXPECT_TRUE(cosimAgainstReference(warm, *findKernel("gemm"), error))
          << error;
      continue;
    }
    std::array<int64_t, 16> out{};
    DiagnosticEngine diags;
    interp::Interpreter interpreter(*warm.module());
    ASSERT_TRUE(interpreter.run(top, interp::pointerArgs({out.data()}), diags))
        << diags.str();
    for (size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int64_t>(3 * i)) << "element " << i;
  }
  StageCache::global().clear();
}

TEST(Flow, FailedFlowClosesTotalWindow) {
  FlowResult result = runLirAdaptorFlow(kLirInput, "nope");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics.find("top function 'nope' not found"),
            std::string::npos);
  EXPECT_GT(result.timings.bridgeMs, 0);
  EXPECT_GE(result.timings.totalMs, result.timings.bridgeMs);
}
