// Incremental recompilation (StageCache).
//
// The stage cache must behave like a correct memo table: a second
// identical compile answers every stage from cache with identical
// results, and an edit invalidates exactly the edited stage and its
// downstream — never upstream.
#include "flow/BatchRunner.h"
#include "flow/Flow.h"
#include "flow/StageCache.h"

#include <gtest/gtest.h>

#include <any>

using namespace mha;

namespace {

flow::FlowOptions cachedOptions() {
  flow::FlowOptions options;
  options.useStageCache = true;
  return options;
}

const flow::KernelSpec &gemm() {
  const flow::KernelSpec *spec = flow::findKernel("gemm");
  EXPECT_NE(spec, nullptr);
  return *spec;
}

using Stage = flow::StageCache::Stage;

flow::StageCache::Counters delta(const flow::StageCache::Counters &before) {
  flow::StageCache::Counters now = flow::StageCache::global().counters();
  flow::StageCache::Counters d;
  for (size_t i = 0; i < flow::StageCache::kNumStages; ++i) {
    d.stages[i].hits = now.stages[i].hits - before.stages[i].hits;
    d.stages[i].misses = now.stages[i].misses - before.stages[i].misses;
  }
  return d;
}

/// Stores a text entry charged at its length (what the mlir stage does).
void storeText(uint64_t key, std::string text) {
  int64_t bytes = static_cast<int64_t>(text.size());
  flow::StageCache::global().store(Stage::Mlir, key, std::move(text), bytes);
}

bool lookupText(uint64_t key) {
  std::any value;
  return flow::StageCache::global().lookup(Stage::Mlir, key, value);
}

} // namespace

TEST(StageCache, SecondIdenticalCompileHitsEveryStage) {
  flow::StageCache::global().clear();
  flow::KernelConfig config;

  auto before = flow::StageCache::global().counters();
  flow::FlowResult cold = flow::runAdaptorFlow(gemm(), config,
                                               cachedOptions());
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  auto coldDelta = delta(before);
  EXPECT_EQ(coldDelta.hits(), 0);
  EXPECT_EQ(coldDelta[Stage::Mlir].misses, 1);
  EXPECT_EQ(coldDelta[Stage::Bridge].misses, 1);
  EXPECT_EQ(coldDelta[Stage::Synth].misses, 1);

  before = flow::StageCache::global().counters();
  flow::FlowResult warm = flow::runAdaptorFlow(gemm(), config,
                                               cachedOptions());
  ASSERT_TRUE(warm.ok) << warm.diagnostics;
  auto warmDelta = delta(before);
  EXPECT_EQ(warmDelta.misses(), 0);
  EXPECT_EQ(warmDelta[Stage::Mlir].hits, 1);
  EXPECT_EQ(warmDelta[Stage::Bridge].hits, 1);
  EXPECT_EQ(warmDelta[Stage::Synth].hits, 1);

  // Same answers from the cache: identical synthesis report and IR.
  ASSERT_NE(cold.synth.top(), nullptr);
  ASSERT_NE(warm.synth.top(), nullptr);
  EXPECT_EQ(cold.synth.top()->latencyCycles, warm.synth.top()->latencyCycles);
  EXPECT_EQ(cold.synth.top()->resources.dsp, warm.synth.top()->resources.dsp);
  EXPECT_EQ(cold.adaptorStats, warm.adaptorStats);

  // The restored module still co-simulates against the host reference.
  std::string error;
  EXPECT_TRUE(flow::cosimAgainstReference(warm, gemm(), error)) << error;
}

TEST(StageCache, HlsCppFlowRestoresEmittedSourceByteIdentical) {
  flow::StageCache::global().clear();
  flow::KernelConfig config;
  flow::FlowResult cold = flow::runHlsCppFlow(gemm(), config,
                                              cachedOptions());
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  flow::FlowResult warm = flow::runHlsCppFlow(gemm(), config,
                                              cachedOptions());
  ASSERT_TRUE(warm.ok) << warm.diagnostics;
  EXPECT_FALSE(cold.hlsCpp.empty());
  EXPECT_EQ(cold.hlsCpp, warm.hlsCpp);
}

TEST(StageCache, EditInvalidatesExactlyDownstreamStages) {
  flow::StageCache::global().clear();
  flow::KernelConfig config;
  flow::FlowResult cold = flow::runAdaptorFlow(gemm(), config,
                                               cachedOptions());
  ASSERT_TRUE(cold.ok) << cold.diagnostics;

  // Synthesis-only edit: upstream stages stay cached, synth recomputes.
  auto before = flow::StageCache::global().counters();
  flow::FlowOptions synthEdit = cachedOptions();
  synthEdit.synthesis.target.clockPeriodNs = 7.5;
  flow::FlowResult r1 = flow::runAdaptorFlow(gemm(), config, synthEdit);
  ASSERT_TRUE(r1.ok) << r1.diagnostics;
  auto d1 = delta(before);
  EXPECT_EQ(d1[Stage::Mlir].hits, 1);
  EXPECT_EQ(d1[Stage::Bridge].hits, 1);
  EXPECT_EQ(d1[Stage::Synth].misses, 1);
  EXPECT_EQ(d1[Stage::Synth].hits, 0);

  // Bridge-level edit: the MLIR stage stays cached, the bridge recomputes
  // (an adaptor option is part of the bridge key even when, as here, the
  // single-function output does not change).
  before = flow::StageCache::global().counters();
  flow::FlowOptions bridgeEdit = cachedOptions();
  bridgeEdit.adaptor.inlineBudget = 255;
  flow::FlowResult r2 = flow::runAdaptorFlow(gemm(), config, bridgeEdit);
  ASSERT_TRUE(r2.ok) << r2.diagnostics;
  auto d2 = delta(before);
  EXPECT_EQ(d2[Stage::Mlir].hits, 1);
  EXPECT_EQ(d2[Stage::Bridge].misses, 1);
  EXPECT_EQ(d2[Stage::Bridge].hits, 0);

  // Config edit: everything from the MLIR stage down recomputes.
  before = flow::StageCache::global().counters();
  flow::KernelConfig edited = config;
  edited.unrollFactor = 2;
  flow::FlowResult r3 = flow::runAdaptorFlow(gemm(), edited,
                                             cachedOptions());
  ASSERT_TRUE(r3.ok) << r3.diagnostics;
  auto d3 = delta(before);
  EXPECT_EQ(d3[Stage::Mlir].misses, 1);
  EXPECT_EQ(d3[Stage::Mlir].hits, 0);
  EXPECT_EQ(d3[Stage::Bridge].misses, 1);
  EXPECT_EQ(d3[Stage::Synth].misses, 1);
}

TEST(StageCache, ConcurrentBatchSharesOneCache) {
  // Many identical jobs racing on a cold cache: results must agree and
  // nothing may crash or deadlock (run under TSan in CI). Exact hit
  // counts are racy (two workers can miss the same key concurrently), so
  // only aggregate sanity is asserted.
  flow::StageCache::global().clear();
  flow::KernelConfig config;
  std::vector<flow::BatchJob> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back({&gemm(), config, flow::FlowKind::Adaptor,
                    cachedOptions(), "cache-race"});
  flow::BatchOptions batchOptions;
  batchOptions.numThreads = 4;
  flow::BatchOutcome outcome = flow::runBatch(jobs, batchOptions);
  ASSERT_EQ(outcome.trace.failures, 0u);
  const auto *top0 = outcome.results[0].synth.top();
  ASSERT_NE(top0, nullptr);
  for (const flow::FlowResult &result : outcome.results) {
    ASSERT_TRUE(result.ok);
    ASSERT_NE(result.synth.top(), nullptr);
    EXPECT_EQ(result.synth.top()->latencyCycles, top0->latencyCycles);
  }
  auto counters = flow::StageCache::global().counters();
  EXPECT_GT(counters.hits() + counters.misses(), 0);
  EXPECT_GE(counters.misses(), 3); // at least one cold chain
}

// --- LRU byte-cap eviction (--stage-cache-limit) ----------------------

TEST(StageCacheLimit, ByteCapEvictsGloballyColdestFirst) {
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  cache.setLimitBytes(250);

  storeText(1, std::string(100, 'a'));
  storeText(2, std::string(100, 'b'));
  ASSERT_TRUE(lookupText(1)); // refresh key 1's recency

  auto before = cache.counters();
  storeText(3, std::string(100, 'c'));
  auto after = cache.counters();

  // Key 2 was the coldest; exactly one eviction brings the total back
  // under the cap, and the resident-bytes counter respects it.
  EXPECT_EQ(after[Stage::Mlir].evictions - before[Stage::Mlir].evictions, 1);
  EXPECT_LE(after.bytes(), cache.limitBytes());
  EXPECT_TRUE(lookupText(1));
  EXPECT_TRUE(lookupText(3));
  EXPECT_FALSE(lookupText(2));

  cache.setLimitBytes(0);
  cache.clear();
}

TEST(StageCacheLimit, SetLimitEnforcesImmediatelyAndOversizedEntryLeaves) {
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  cache.setLimitBytes(0);
  for (uint64_t key = 1; key <= 8; ++key)
    storeText(key, std::string(100, 'x'));
  EXPECT_EQ(cache.counters().bytes(), 800);

  // Tightening the cap evicts immediately, not on the next store.
  cache.setLimitBytes(350);
  EXPECT_LE(cache.counters().bytes(), 350);
  EXPECT_GE(cache.counters()[Stage::Mlir].evictions, 5);

  // An entry larger than the whole cap never stays resident.
  storeText(99, std::string(1000, 'y'));
  EXPECT_FALSE(lookupText(99));
  EXPECT_LE(cache.counters().bytes(), 350);

  cache.setLimitBytes(0);
  cache.clear();
}

TEST(StageCacheLimit, CappedCacheStillServesWarmFlows) {
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  // Generous cap: both flows' entries for one kernel fit comfortably, so
  // a warm rerun is a full-chain hit even with eviction armed.
  cache.setLimitBytes(64 << 20);
  flow::KernelConfig config;
  flow::FlowResult cold = flow::runAdaptorFlow(gemm(), config,
                                               cachedOptions());
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  auto before = cache.counters();
  flow::FlowResult warm = flow::runAdaptorFlow(gemm(), config,
                                               cachedOptions());
  ASSERT_TRUE(warm.ok) << warm.diagnostics;
  auto now = cache.counters();
  EXPECT_EQ(now.misses() - before.misses(), 0);
  EXPECT_TRUE(warm.synthFromCache);
  EXPECT_LE(now.bytes(), cache.limitBytes());
  cache.setLimitBytes(0);
  cache.clear();
}

// A multi-function LIR module addresses the bridge stage with the *whole*
// module text, so editing only a callee body — the top function unchanged
// — must miss the cache and produce the new answer, not replay the old
// chain.
TEST(StageCache, CalleeBodyEditInvalidatesLirFlow) {
  flow::StageCache::global().clear();
  auto moduleText = [](const char *addend) {
    return std::string(R"(
define i64 @helper(i64 %x) {
entry:
  %v = add i64 %x, )") +
           addend + R"(
  ret i64 %v
}

define void @top([16 x i64]* noalias %out) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 16
  br i1 %cmp, label %body, label %exit
body:
  %v = call i64 @helper(i64 %iv)
  %p = getelementptr [16 x i64], [16 x i64]* %out, i64 0, i64 %iv
  store i64 %v, i64* %p
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)";
  };

  auto before = flow::StageCache::global().counters();
  flow::FlowResult cold =
      flow::runLirAdaptorFlow(moduleText("1"), "top", cachedOptions());
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  auto coldDelta = delta(before);
  EXPECT_EQ(coldDelta[Stage::Bridge].misses, 1);
  EXPECT_EQ(coldDelta[Stage::Synth].misses, 1);
  EXPECT_EQ(coldDelta.hits(), 0);

  before = flow::StageCache::global().counters();
  flow::FlowResult warm =
      flow::runLirAdaptorFlow(moduleText("1"), "top", cachedOptions());
  ASSERT_TRUE(warm.ok) << warm.diagnostics;
  auto warmDelta = delta(before);
  EXPECT_EQ(warmDelta[Stage::Bridge].hits, 1);
  EXPECT_EQ(warmDelta.misses(), 0);

  // Edit only @helper: same @top text, different callee body. The whole
  // post-inline module keys the chain, so this is a cold compile again.
  before = flow::StageCache::global().counters();
  flow::FlowResult edited =
      flow::runLirAdaptorFlow(moduleText("2"), "top", cachedOptions());
  ASSERT_TRUE(edited.ok) << edited.diagnostics;
  auto editedDelta = delta(before);
  EXPECT_EQ(editedDelta[Stage::Bridge].misses, 1);
  EXPECT_EQ(editedDelta[Stage::Bridge].hits, 0);
}
