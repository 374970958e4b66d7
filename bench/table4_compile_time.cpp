// Table 4 — compile time of the two flows (google-benchmark timing).
// The direct-IR adaptor flow skips C++ emission and re-parsing, which is
// the practical argument the paper makes for a direct IR bridge.
//
// All flow executions go through the BatchRunner. Timing semantics are
// preserved: per-kernel numbers are the per-job wall times recorded
// *inside* the job (around the flow call only, via UseManualTime), so
// batch queueing/harness overhead never leaks into the measurement. The
// extra table4/batch benchmarks time a whole 11-kernel batch end to end —
// the throughput the parallel driver buys on a multi-core host.
#include "BenchCommon.h"

#include "flow/StageCache.h"

#include <benchmark/benchmark.h>

using namespace mha;
using namespace mha::bench;

namespace {

// Shared across iterations so pool start-up never pollutes a measurement.
ThreadPool *gPool = nullptr;

flow::BatchOptions poolOptions() {
  flow::BatchOptions options;
  options.pool = gPool;
  return options;
}

void BM_FullFlow(benchmark::State &state, const std::string &kernel,
                 flow::FlowKind kind) {
  const flow::KernelSpec *spec = flow::findKernel(kernel);
  std::vector<flow::BatchJob> jobs{
      {spec, defaultConfig(), kind, {}, "table4"}};
  for (auto _ : state) {
    flow::BatchOutcome out = flow::runBatch(jobs, poolOptions());
    if (!out.results[0].ok)
      state.SkipWithError("flow failed");
    state.SetIterationTime(out.trace.jobs[0].wallMs / 1000.0);
    benchmark::DoNotOptimize(out.results[0].synth.functions.size());
  }
}

void BM_BridgeOnly(benchmark::State &state, const std::string &kernel,
                   flow::FlowKind kind) {
  // Stage timing: the flow-specific bridge leg only (scf conversion +
  // lowering + adaptor, or C++ emission + HLS frontend) — excludes the
  // shared MLIR opts and the backend.
  const flow::KernelSpec *spec = flow::findKernel(kernel);
  std::vector<flow::BatchJob> jobs{
      {spec, defaultConfig(), kind, {}, "table4-bridge"}};
  for (auto _ : state) {
    flow::BatchOutcome out = flow::runBatch(jobs, poolOptions());
    if (!out.results[0].ok)
      state.SkipWithError("flow failed");
    state.SetIterationTime(out.results[0].timings.bridgeMs / 1000.0);
  }
}

void BM_BatchAllKernels(benchmark::State &state, flow::FlowKind kind) {
  // Whole-batch throughput: every kernel through one flow, in parallel.
  std::vector<flow::BatchJob> jobs;
  for (const flow::KernelSpec &spec : flow::allKernels())
    jobs.push_back({&spec, defaultConfig(), kind, {}, "table4-batch"});
  double serialMs = 0;
  for (auto _ : state) {
    flow::BatchOutcome out = flow::runBatch(jobs, poolOptions());
    if (out.trace.failures != 0)
      state.SkipWithError("batch had failures");
    state.SetIterationTime(out.trace.wallMs / 1000.0);
    serialMs = out.trace.serialMs;
  }
  state.counters["serial_ms"] = serialMs;
  state.counters["threads"] = gPool->size();
}

} // namespace

int main(int argc, char **argv) {
  // Consumes --json before google-benchmark sees (and rejects) it.
  JsonReport report("table4_compile_time", argc, argv);
  ThreadPool pool;
  gPool = &pool;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    benchmark::RegisterBenchmark(("table4/full/adaptor/" + spec.name).c_str(),
                                 BM_FullFlow, spec.name,
                                 flow::FlowKind::Adaptor)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("table4/full/hls-c++/" + spec.name).c_str(),
                                 BM_FullFlow, spec.name,
                                 flow::FlowKind::HlsCpp)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  // Bridge-leg comparison on a representative subset.
  for (const char *kernel : {"gemm", "atax", "conv2d"}) {
    benchmark::RegisterBenchmark(
        (std::string("table4/bridge/adaptor/") + kernel).c_str(),
        BM_BridgeOnly, std::string(kernel), flow::FlowKind::Adaptor)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("table4/bridge/hls-c++/") + kernel).c_str(),
        BM_BridgeOnly, std::string(kernel), flow::FlowKind::HlsCpp)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("table4/batch/adaptor/all-kernels",
                               BM_BatchAllKernels, flow::FlowKind::Adaptor)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("table4/batch/hls-c++/all-kernels",
                               BM_BatchAllKernels, flow::FlowKind::HlsCpp)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (report.enabled()) {
    // One measured batch per flow for the JSON trajectory: the per-job
    // wall time is recorded inside the job, same as the benchmarks above.
    for (flow::FlowKind kind :
         {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp}) {
      const char *flowName =
          kind == flow::FlowKind::Adaptor ? "adaptor" : "hls-c++";
      std::vector<flow::BatchJob> jobs;
      for (const flow::KernelSpec &spec : flow::allKernels())
        jobs.push_back({&spec, defaultConfig(), kind, {}, "table4-json"});
      flow::BatchOutcome out = flow::runBatch(jobs, poolOptions());
      if (out.trace.failures != 0) {
        std::fprintf(stderr, "table4: batch had failures\n");
        return 1;
      }
      size_t job = 0;
      for (const flow::KernelSpec &spec : flow::allKernels()) {
        report.beginRow();
        report.field("kernel", spec.name);
        report.field("flow", flowName);
        report.field("mode", "uncached");
        report.field("wall_ms", out.trace.jobs[job].wallMs);
        report.field("bridge_ms", out.results[job].timings.bridgeMs);
        ++job;
      }
    }
    // Incremental-recompilation trajectory: the same batch twice with the
    // stage cache on. The first (cold) run populates the cache, the second
    // (warm) run answers every stage from it — the warm/cold ratio is the
    // recompile speedup a no-op rebuild sees. Both run one job at a time on
    // a one-thread pool: a warm job takes microseconds, so concurrent jobs'
    // dispatch would otherwise dominate the summed wall times.
    ThreadPool serialPool(1);
    flow::BatchOptions serial;
    serial.pool = &serialPool;
    for (flow::FlowKind kind :
         {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp}) {
      const char *flowName =
          kind == flow::FlowKind::Adaptor ? "adaptor" : "hls-c++";
      flow::FlowOptions cachedFlow;
      cachedFlow.useStageCache = true;
      std::vector<flow::BatchJob> jobs;
      for (const flow::KernelSpec &spec : flow::allKernels())
        jobs.push_back({&spec, defaultConfig(), kind, cachedFlow,
                        "table4-cache"});
      flow::StageCache::global().clear();
      double totals[2] = {0, 0};
      for (int pass = 0; pass < 2; ++pass) {
        const char *mode = pass == 0 ? "cold" : "warm";
        flow::BatchOutcome out = flow::runBatch(jobs, serial);
        if (out.trace.failures != 0) {
          std::fprintf(stderr, "table4: cached batch had failures\n");
          return 1;
        }
        size_t job = 0;
        for (const flow::KernelSpec &spec : flow::allKernels()) {
          report.beginRow();
          report.field("kernel", spec.name);
          report.field("flow", flowName);
          report.field("mode", mode);
          report.field("wall_ms", out.trace.jobs[job].wallMs);
          totals[pass] += out.trace.jobs[job].wallMs;
          ++job;
        }
      }
      report.beginRow();
      report.field("kernel", "all");
      report.field("flow", flowName);
      report.field("mode", "cache-speedup");
      report.field("cold_ms", totals[0]);
      report.field("warm_ms", totals[1]);
      report.field("speedup", totals[1] > 0 ? totals[0] / totals[1] : 0.0);
    }
  }
  return report.finish();
}
