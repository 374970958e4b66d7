// Telemetry tests: spans and lanes, Chrome trace export, statistics as
// metrics counters, pass instrumentation hooks (lir and mir), the
// --time-passes table rendered from the pass-duration histogram, and the
// flow drivers' span integration.
#include "support/Telemetry.h"

#include "flow/Flow.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/transforms/Transforms.h"
#include "mir/Builder.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace mha;
using namespace mha::telemetry;

namespace {

/// Every telemetry test shares the process-wide tracer and metrics
/// registry, so each one starts from a clean slate and leaves tracing and
/// metrics (the --time-passes source) disabled for its neighbors.
struct TracerGuard {
  TracerGuard(bool enable = false, bool enableMetrics = false) {
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(enable);
    tracer.reset();
    metrics::setEnabled(enableMetrics);
    metrics::Registry::global().resetForTest();
  }
  ~TracerGuard() {
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(false);
    tracer.reset();
    metrics::setEnabled(false);
    metrics::Registry::global().resetForTest();
  }
};

/// One (pipeline, pass) row of the pass-duration histogram, merged over
/// its changed="false"/"true" series.
struct PassTotals {
  int64_t runs = 0, changed = 0, totalUs = 0;
};

PassTotals passTotals(const std::string &pipeline, const std::string &pass) {
  PassTotals out;
  for (const metrics::HistogramSnapshot &h :
       metrics::Registry::global().snapshot().histograms)
    if (h.name == "mha_pass_duration_us" && h.labels[0].second == pipeline &&
        h.labels[1].second == pass) {
      out.runs += h.merged.count;
      out.changed += h.labels[2].second == "true" ? h.merged.count : 0;
      out.totalUs += h.merged.sum;
    }
  return out;
}

struct Parsed {
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = lir::parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
  }
};

// A function with a promotable alloca and (after mem2reg) dead
// arithmetic, so mem2reg and dce both report changes.
const char *kPromotableIR = R"(
define void @f(i64 %x) {
entry:
  %slot = alloca i64
  store i64 %x, i64* %slot
  %v = load i64, i64* %slot
  %r = add i64 %v, 1
  ret void
}
)";

/// Records the hook sequence as strings like "A:before:dce".
struct RecordingInstr : lir::PassInstrumentation {
  RecordingInstr(std::string tag, std::vector<std::string> &log)
      : tag(std::move(tag)), log(log) {}
  void beforePass(const lir::ModulePass &pass, const lir::Module &) override {
    log.push_back(tag + ":before:" + pass.name());
  }
  void afterPass(const lir::ModulePass &pass, const lir::Module &,
                 const lir::PassRunRecord &record) override {
    lastRecord = record;
    log.push_back(tag + ":after:" + pass.name());
  }
  std::string tag;
  std::vector<std::string> &log;
  lir::PassRunRecord lastRecord;
};

const TraceEvent *findEvent(const std::vector<TraceEvent> &events,
                            const std::string &name) {
  auto it = std::find_if(events.begin(), events.end(),
                         [&](const TraceEvent &e) { return e.name == name; });
  return it == events.end() ? nullptr : &*it;
}

bool contains(const TraceEvent &outer, const TraceEvent &inner) {
  return inner.startUs >= outer.startUs &&
         inner.startUs + inner.durUs <= outer.startUs + outer.durUs;
}

} // namespace

TEST(Span, MeasuresWithoutRecordingWhenDisabled) {
  TracerGuard guard;
  Span span("unrecorded", "test");
  EXPECT_GE(span.finish(), 0.0);
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(Span, FinishIsIdempotent) {
  TracerGuard guard;
  Span span("once", "test");
  double first = span.finish();
  EXPECT_EQ(span.finish(), first);
}

TEST(Span, RecordsNestedSpansWithTimeContainment) {
  TracerGuard guard(/*enable=*/true);
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      (void)inner;
    }
  }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first; both are complete spans in the
  // same lane and the inner interval nests within the outer one — which
  // is exactly what Chrome/Perfetto use to render the stack.
  const TraceEvent *outer = findEvent(events, "outer");
  const TraceEvent *inner = findEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(inner->phase, 'X');
  EXPECT_EQ(outer->lane, inner->lane);
  EXPECT_TRUE(contains(*outer, *inner));
}

TEST(Span, ArgsAreRecorded) {
  TracerGuard guard(/*enable=*/true);
  {
    Span span("with-args", "test", {{"kernel", "gemm"}, {"flow", "adaptor"}});
    span.addArg("sweeps", "3"); // known only when the work is done
  }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 3u);
  EXPECT_EQ(events[0].args[0].first, "kernel");
  EXPECT_EQ(events[0].args[0].second, "gemm");
  EXPECT_EQ(events[0].args[2].first, "sweeps");
  EXPECT_EQ(events[0].args[2].second, "3");
}

TEST(Tracer, InstantEventsAndReset) {
  TracerGuard guard(/*enable=*/true);
  Tracer::global().instant("marker", "test");
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  Tracer::global().reset();
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(Tracer, ThreadLaneClaimAndName) {
  TracerGuard guard(/*enable=*/true);
  Tracer::setThreadLane(7, "lane seven");
  { Span span("on-lane-7", "test"); }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].lane, 7);
  std::string json = Tracer::global().chromeTraceJson();
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("lane seven"), std::string::npos);
}

TEST(Tracer, UnclaimedThreadsGetDistinctAutoLanes) {
  TracerGuard guard(/*enable=*/true);
  int laneA = -1, laneB = -1;
  std::thread a([&] {
    Span span("thread-a", "test");
    span.finish();
    laneA = Tracer::global().events().back().lane;
  });
  a.join();
  std::thread b([&] {
    Span span("thread-b", "test");
    span.finish();
    laneB = Tracer::global().events().back().lane;
  });
  b.join();
  EXPECT_GE(laneA, 1000);
  EXPECT_GE(laneB, 1000);
  EXPECT_NE(laneA, laneB);
}

TEST(Tracer, ChromeTraceIsWellFormedJsonEvenWithHostileNames) {
  TracerGuard guard(/*enable=*/true);
  Tracer::setThreadLane(3, "na\"me\\with\nnasties");
  { Span span("sp\"an\\\n\t", "cat\"egory", {{"k\"ey", "val\\ue\n"}}); }
  Tracer::global().instant("inst\"ant", "test");
  std::string json = Tracer::global().chromeTraceJson();
  std::string error;
  EXPECT_TRUE(json::validate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Tracer, WriteChromeTraceRoundTrips) {
  TracerGuard guard(/*enable=*/true);
  { Span span("to-disk", "test"); }
  const char *path = "telemetry_chrome_test.json";
  std::string error;
  ASSERT_TRUE(json::writeFile(path, Tracer::global().chromeTraceJson(),
                              &error))
      << error;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json::validate(buffer.str(), &error)) << error;
  EXPECT_NE(buffer.str().find("to-disk"), std::string::npos);
  std::remove(path);
}

TEST(Statistic, CountsAtomicallyAcrossThreads) {
  metrics::Counter &counter = metrics::statistic(
      "telemetry-test", "increments", "test counter bumped from a pool");
  int64_t before = counter.value();
  ThreadPool pool(8);
  parallelFor(pool, 8000, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.value() - before, 8000);
  counter.add(5);
  EXPECT_EQ(counter.value() - before, 8005);

  // The snapshot lists the counter as a statistic and the report renders
  // it in the --stats line format.
  std::vector<metrics::CounterSnapshot> stats =
      metrics::Registry::global().snapshot().stats;
  auto it = std::find_if(stats.begin(), stats.end(),
                         [](const metrics::CounterSnapshot &s) {
                           return s.labels[0].second == "telemetry-test" &&
                                  s.labels[1].second == "increments";
                         });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->value, counter.value());
  std::string report = metrics::statisticsReport();
  EXPECT_NE(report.find(strfmt("%10lld telemetry-test.increments - test "
                               "counter bumped from a pool\n",
                               static_cast<long long>(counter.value()))),
            std::string::npos)
      << report;
}

TEST(Statistic, TransformPassesBumpRegisteredCounters) {
  // dce registers a process-wide "dce.removed" style counter; running the
  // pass on IR with (post-mem2reg) dead code must move it.
  auto valueOf = [](const char *group) {
    int64_t total = 0;
    for (const metrics::CounterSnapshot &s :
         metrics::Registry::global().snapshot().stats)
      if (s.labels[0].second == group)
        total += s.value;
    return total;
  };
  int64_t mem2regBefore = valueOf("mem2reg"), dceBefore = valueOf("dce");

  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  EXPECT_GT(valueOf("mem2reg"), mem2regBefore);
  EXPECT_GT(valueOf("dce"), dceBefore);
}

TEST(PassInstrumentation, BeforeInOrderAfterInReverse) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::vector<std::string> log;
  RecordingInstr a("A", log), b("B", log);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&a);
  pm.addInstrumentation(&b);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  // LLVM-style nesting: A wraps B wraps the pass.
  std::vector<std::string> expected = {
      "A:before:mem2reg", "B:before:mem2reg", "B:after:mem2reg",
      "A:after:mem2reg",  "A:before:dce",     "B:before:dce",
      "B:after:dce",      "A:after:dce",
  };
  EXPECT_EQ(log, expected);
}

TEST(PassInstrumentation, AfterHookSeesPopulatedRecord) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::vector<std::string> log;
  RecordingInstr instr("A", log);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&instr);
  pm.add(lir::createMem2RegPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  const lir::PassRunRecord &record = instr.lastRecord;
  EXPECT_EQ(record.passName, "mem2reg");
  EXPECT_TRUE(record.changed);
  EXPECT_GE(record.millis, 0.0);
  EXPECT_FALSE(record.stats.empty());
  // The manager's own record matches what the hook saw.
  ASSERT_EQ(pm.records().size(), 1u);
  EXPECT_EQ(pm.records()[0].millis, record.millis);
  EXPECT_EQ(pm.records()[0].stats, record.stats);
}

TEST(PassInstrumentation, PrintIRBannersRespectFilters) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::ostringstream os;
  lir::PrintIRInstrumentation::Options options;
  options.beforeAll = true;
  options.afterPasses = {"dce"};
  lir::PrintIRInstrumentation printer(options, os);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&printer);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  std::string out = os.str();
  EXPECT_NE(out.find("*** IR before pass 'mem2reg' ***"), std::string::npos);
  EXPECT_NE(out.find("*** IR before pass 'dce' ***"), std::string::npos);
  // after-filter lists only dce:
  EXPECT_EQ(out.find("*** IR after pass 'mem2reg'"), std::string::npos);
  EXPECT_NE(out.find("*** IR after pass 'dce' (changed) ***"),
            std::string::npos);
}

TEST(PassInstrumentation, TimePassesAggregationMatchesRecords) {
  TracerGuard guard(/*enable=*/false, /*enableMetrics=*/true);
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  pm.add(lir::createDCEPass()); // second run: aggregation must merge rows
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  // Each run lands in the histogram as llround(millis * 1000) us.
  int64_t recordUs = 0;
  for (const lir::PassRunRecord &record : pm.records())
    recordUs += std::llround(record.millis * 1000.0);
  PassTotals mem2reg = passTotals("lir", "mem2reg");
  PassTotals dce = passTotals("lir", "dce");
  EXPECT_EQ(mem2reg.runs + dce.runs, 3);
  EXPECT_EQ(dce.runs, 2);
  EXPECT_EQ(mem2reg.totalUs + dce.totalUs, recordUs);

  // The table's total row is that sum, exactly.
  std::string table = metrics::passTimesTable();
  EXPECT_NE(table.find("aggregated over 2 passes"), std::string::npos);
  EXPECT_NE(table.find(strfmt("%-10s %-28s %6s %8s %10.3f %6.1f%%\n",
                              "total", "", "", "", double(recordUs) / 1000.0,
                              100.0)),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("dce"), std::string::npos);
  EXPECT_NE(table.find("mem2reg"), std::string::npos);
}

TEST(PassInstrumentation, DisabledTimePassesRecordsNothing) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();
  EXPECT_EQ(passTotals("lir", "mem2reg").runs, 0);
  EXPECT_EQ(metrics::passTimesTable(), "");
}

namespace {

/// Records mir hook order, mirroring RecordingInstr.
struct MirRecordingInstr : mir::MPassInstrumentation {
  MirRecordingInstr(std::string tag, std::vector<std::string> &log)
      : tag(std::move(tag)), log(log) {}
  void beforePass(const mir::MPass &pass, mir::ModuleOp) override {
    log.push_back(tag + ":before:" + pass.name());
  }
  void afterPass(const mir::MPass &pass, mir::ModuleOp,
                 const mir::MPassRecord &record) override {
    lastRecord = record;
    log.push_back(tag + ":after:" + pass.name());
  }
  std::string tag;
  std::vector<std::string> &log;
  mir::MPassRecord lastRecord;
};

} // namespace

TEST(MirPassInstrumentation, HookOrderAndPassDuration) {
  TracerGuard guard(/*enable=*/false, /*enableMetrics=*/true);
  mir::MContext ctx;
  mir::OpBuilder builder(ctx);
  mir::OwnedModule module(mir::OpBuilder::createModule());
  builder.setInsertPoint(module.get().body());
  mir::FuncOp fn = builder.createFunc("k", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  builder.createReturn();

  std::vector<std::string> log;
  MirRecordingInstr a("A", log), b("B", log);
  mir::MPassManager pm;
  pm.addInstrumentation(&a);
  pm.addInstrumentation(&b);
  pm.add(mir::createCanonicalizePass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(module.get(), diags)) << diags.str();

  std::vector<std::string> expected = {
      "A:before:mir-canonicalize", "B:before:mir-canonicalize",
      "B:after:mir-canonicalize", "A:after:mir-canonicalize"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(a.lastRecord.passName, "mir-canonicalize");

  // The mir pipeline feeds the same pass-duration histogram.
  EXPECT_EQ(passTotals("mir", "mir-canonicalize").runs, 1);
  EXPECT_NE(metrics::passTimesTable().find("mir-canonicalize"),
            std::string::npos);
}

TEST(FlowTelemetry, StageSpansStillPopulateTimings) {
  TracerGuard guard;
  const flow::KernelSpec *spec = flow::findKernel("fir");
  ASSERT_NE(spec, nullptr);
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  flow::FlowResult result = flow::runAdaptorFlow(*spec, config);
  ASSERT_TRUE(result.ok) << result.diagnostics;
  // Table 4 semantics: the three windows and the total are measured even
  // with tracing disabled, and sub-stage spans attribute into them.
  EXPECT_GT(result.timings.mlirOptMs, 0);
  EXPECT_GT(result.timings.bridgeMs, 0);
  EXPECT_GT(result.timings.synthMs, 0);
  EXPECT_GE(result.timings.totalMs, result.timings.mlirOptMs +
                                        result.timings.bridgeMs +
                                        result.timings.synthMs);
  EXPECT_FALSE(result.spans.empty());
  // With tracing off, nothing leaks into the global tracer.
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(FlowTelemetry, AdaptorFlowEmitsNestedSpans) {
  TracerGuard guard(/*enable=*/true, /*enableMetrics=*/true);
  const flow::KernelSpec *spec = flow::findKernel("fir");
  ASSERT_NE(spec, nullptr);
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  flow::FlowResult result = flow::runAdaptorFlow(*spec, config);
  ASSERT_TRUE(result.ok) << result.diagnostics;

  std::vector<TraceEvent> events = Tracer::global().events();
  const TraceEvent *total = findEvent(events, "flow:adaptor:fir");
  const TraceEvent *bridge = findEvent(events, "bridge");
  const TraceEvent *mlirOpt = findEvent(events, "mlirOpt");
  const TraceEvent *synth = findEvent(events, "synth");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(bridge, nullptr);
  ASSERT_NE(mlirOpt, nullptr);
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(bridge->category, "flow-stage");
  EXPECT_TRUE(contains(*total, *bridge));
  EXPECT_TRUE(contains(*total, *mlirOpt));
  EXPECT_TRUE(contains(*total, *synth));
  // The total span carries kernel/flow args for trace filtering.
  ASSERT_FALSE(total->args.empty());
  EXPECT_EQ(total->args[0].first, "kernel");
  EXPECT_EQ(total->args[0].second, "fir");

  // The scheduler's phases nest within the synth window; fir's inner loop
  // is pipelined, so every phase runs.
  for (const char *phase :
       {"vhls-compat", "vhls-unroll", "vhls-arrays", "vhls-costs",
        "vhls-analyses", "vhls-blocks", "vhls-dependences", "vhls-recmii",
        "vhls-modulo-sweeps", "vhls-bind"}) {
    const TraceEvent *event = findEvent(events, phase);
    ASSERT_NE(event, nullptr) << phase;
    EXPECT_EQ(event->category, "vhls");
    EXPECT_TRUE(contains(*synth, *event)) << phase;
  }
  const TraceEvent *sweeps = findEvent(events, "vhls-modulo-sweeps");
  ASSERT_EQ(sweeps->args.size(), 2u);
  EXPECT_EQ(sweeps->args[0].first, "ii");
  EXPECT_EQ(sweeps->args[1].first, "sweeps");

  // Adaptor (lir) pass spans nest within the bridge window, each one
  // followed by its verify-each span...
  double lirPassUs = 0;
  int lirPasses = 0, lirVerifies = 0;
  for (const TraceEvent &event : events)
    if (event.category == "lir-pass") {
      EXPECT_TRUE(contains(*bridge, event)) << event.name;
      lirPassUs += event.durUs;
      ++lirPasses;
    } else if (event.category == "lir-verify") {
      EXPECT_TRUE(contains(*bridge, event));
      ++lirVerifies;
    }
  EXPECT_GT(lirPassUs, 0);
  EXPECT_EQ(lirVerifies, lirPasses);
  // ...so their summed time fits inside it, and --time-passes agrees with
  // the per-stage window within tolerance.
  EXPECT_LE(lirPassUs / 1000.0, result.timings.bridgeMs * 1.05 + 1.0);
  int64_t lirTableUs = 0;
  for (const metrics::HistogramSnapshot &h :
       metrics::Registry::global().snapshot().histograms)
    if (h.name == "mha_pass_duration_us" && h.labels[0].second == "lir")
      lirTableUs += h.merged.sum;
  EXPECT_NEAR(lirTableUs / 1000.0, lirPassUs / 1000.0, 0.5);

  // The whole trace renders as valid Chrome JSON.
  std::string error;
  EXPECT_TRUE(json::validate(Tracer::global().chromeTraceJson(), &error))
      << error;
}
