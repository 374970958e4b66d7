// mha-flow - batch flow driver over the benchmark kernels.
//
//   mha-flow [--kernels=gemm,atax|all] [--flow=adaptor|hls-cpp|both]
//            [--batch] [--threads=N] [--trace=out.json]
//            [--chrome-trace=out.json] [--time-passes] [--stats]
//            [--ii=N] [--unroll=N] [--partition=N] [--dataflow]
//            [--no-directives] [--cosim] [--stage-cache] [--no-times]
//   mha-flow --lir=module.lir [--top=fn] [--stage-cache]
//            [--no-times] [--stats] [--time-passes]
//
// Runs every (kernel, flow) pair and prints one row per job with
// accept/reject status, latency and resources. Results are always in
// submission order. By default jobs run serially (a one-worker pool);
// --batch runs them across all cores. --trace dumps the structured batch
// trace (per-stage timings, adaptor stats, worker/queue occupancy) as
// JSON. --chrome-trace dumps a Chrome trace-event file (one lane per pool
// worker, nested batch-job -> flow-stage -> pass spans) loadable in
// chrome://tracing or Perfetto; --time-passes prints the aggregated
// per-pass timing table and --stats the statistic-counter registry, both
// on stderr. --stage-cache enables incremental recompilation (stage-hash
// cache, shared across jobs in this process) and prints a one-line cache
// summary on stderr at exit; --no-times suppresses every timing in the
// output so two runs diff byte-identically (the CI determinism check).
// The shared observability flags (--metrics-out, --metrics-interval,
// --metrics-prom, --event-log, --event-log-level) are documented in
// ObservabilityCli.h. Exit status is 0 iff every job succeeded (and
// co-simulated, with --cosim) and every requested output file was
// written.
//
// --lir runs the second mode: the direct-LIR entry. The file is parsed
// as a (possibly multi-function) MiniLLVM module, call legalization
// (rec2iter, inlining, call-site privatization) runs before the usual
// adaptor pipeline, and --top names the function to synthesize (optional
// when the module defines exactly one function).
#include "ObservabilityCli.h"

#include "flow/BatchRunner.h"
#include "flow/Flow.h"
#include "flow/StageCache.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace mha;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mha-flow [--kernels=a,b,...|all] [--flow=adaptor|hls-cpp|both]\n"
      "                [--batch] [--threads=N] [--trace=out.json]\n"
      "                [--chrome-trace=out.json] [--time-passes] [--stats]\n"
      "                [--ii=N] [--unroll=N] [--partition=N] [--dataflow]\n"
      "                [--no-directives] [--cosim]\n"
      "                [--stage-cache] [--no-times]\n"
      "       mha-flow --lir=module.lir [--top=fn]\n"
      "                [--stage-cache] [--no-times] [--stats]\n"
      "                [--metrics-out=m.json] [--metrics-interval=MS]\n"
      "                [--metrics-prom=m.prom] [--event-log=e.jsonl]\n"
      "                [--event-log-level=debug|info|warn|error]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string kernelList = "all";
  std::string flowName = "both";
  std::string tracePath;
  std::string chromeTracePath;
  bool batch = false, cosim = false, timePasses = false, statsFlag = false;
  bool stageCache = false, noTimes = false;
  std::string lirPath, topName;
  int64_t threads = 0;
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;

  obscli::Options obsOptions;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool obsOk = true, knobOk = true;
    if (obscli::parseFlag(arg, obsOptions, obsOk)) {
      if (!obsOk)
        return usage();
    } else if (startsWith(arg, "--kernels="))
      kernelList = arg.substr(10);
    else if (startsWith(arg, "--flow="))
      flowName = arg.substr(7);
    else if (arg == "--batch")
      batch = true;
    else if (startsWith(arg, "--threads=")) {
      if (!parseNumericFlag(arg, 10, "--threads", 0, 4096, threads))
        return usage();
    } else if (startsWith(arg, "--trace="))
      tracePath = arg.substr(8);
    else if (startsWith(arg, "--chrome-trace="))
      chromeTracePath = arg.substr(15);
    else if (arg == "--time-passes")
      timePasses = true;
    else if (arg == "--stats")
      statsFlag = true;
    else if (parseKnobFlag(arg, config, knobOk)) {
      if (!knobOk)
        return usage();
    } else if (arg == "--cosim")
      cosim = true;
    else if (startsWith(arg, "--lir="))
      lirPath = arg.substr(6);
    else if (startsWith(arg, "--top="))
      topName = arg.substr(6);
    else if (arg == "--stage-cache")
      stageCache = true;
    else if (arg == "--no-times")
      noTimes = true;
    else if (arg == "--help" || arg == "-h")
      return usage();
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  telemetry::Tracer &tracer = telemetry::Tracer::global();
  if (!chromeTracePath.empty()) {
    tracer.setEnabled(true);
    telemetry::Tracer::setThreadLane(1000, "main");
  }
  if (timePasses)
    metrics::setEnabled(true);

  obscli::Session obs;
  if (!obs.begin(obsOptions))
    return usage();

  if (!lirPath.empty()) {
    std::ifstream in(lirPath);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", lirPath.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    flow::FlowOptions flowOptions;
    flowOptions.useStageCache = stageCache;
    flow::FlowResult result =
        flow::runLirAdaptorFlow(buffer.str(), topName, flowOptions);
    if (!result.ok) {
      std::fprintf(stderr, "%s: flow failed\n%s", lirPath.c_str(),
                   result.diagnostics.c_str());
      return 1;
    }
    const vhls::FunctionReport *top = result.synth.top();
    if (!top) {
      std::fprintf(stderr, "%s: no synthesis report for top '%s'\n",
                   lirPath.c_str(), result.kernelName.c_str());
      return 1;
    }
    std::printf("%-16s %-7s %12s %6s %6s %8s %8s\n", "top", "status",
                "latency", "DSP", "BRAM", "LUT", "FF");
    std::printf("%-16s %-7s %12lld %6lld %6lld %8lld %8lld\n",
                result.kernelName.c_str(), "ok",
                static_cast<long long>(top->latencyCycles),
                static_cast<long long>(top->resources.dsp),
                static_cast<long long>(top->resources.bram),
                static_cast<long long>(top->resources.lut),
                static_cast<long long>(top->resources.ff));
    if (timePasses)
      std::fprintf(stderr, "%s", metrics::passTimesTable().c_str());
    if (statsFlag)
      std::fprintf(stderr, "%s", metrics::statisticsReport().c_str());
    if (stageCache) {
      flow::StageCache::Counters cache = flow::StageCache::global().counters();
      std::fprintf(stderr, "stage-cache: %lld hits, %lld misses\n",
                   static_cast<long long>(cache.hits()),
                   static_cast<long long>(cache.misses()));
    }
    if (!obs.finish())
      return 1;
    return 0;
  }

  std::vector<flow::FlowKind> kinds;
  if (flowName == "adaptor")
    kinds = {flow::FlowKind::Adaptor};
  else if (flowName == "hls-cpp" || flowName == "hls-c++")
    kinds = {flow::FlowKind::HlsCpp};
  else if (flowName == "both")
    kinds = {flow::FlowKind::HlsCpp, flow::FlowKind::Adaptor};
  else {
    std::fprintf(stderr, "unknown flow '%s'\n", flowName.c_str());
    return usage();
  }

  std::vector<const flow::KernelSpec *> kernels;
  if (kernelList == "all") {
    for (const flow::KernelSpec &spec : flow::allKernels())
      kernels.push_back(&spec);
  } else {
    for (const std::string &name : splitString(kernelList, ',')) {
      const flow::KernelSpec *spec = flow::findKernel(name);
      if (!spec) {
        std::fprintf(stderr, "unknown kernel '%s'\n%s\n", name.c_str(),
                     flow::availableKernelsHint().c_str());
        return 2;
      }
      kernels.push_back(spec);
    }
  }

  flow::FlowOptions flowOptions;
  flowOptions.useStageCache = stageCache;

  std::vector<flow::BatchJob> jobs;
  for (const flow::KernelSpec *spec : kernels)
    for (flow::FlowKind kind : kinds)
      jobs.push_back({spec, config, kind, flowOptions, ""});

  flow::BatchOptions options;
  options.numThreads = batch ? static_cast<unsigned>(threads) : 1;
  elog::info("flow", "batch starting",
             {{"jobs", strfmt("%zu", jobs.size())},
              {"threads", strfmt("%u", options.numThreads)}});
  flow::BatchOutcome outcome = flow::runBatch(jobs, options);
  elog::info("flow", "batch finished",
             {{"jobs", strfmt("%zu", outcome.trace.jobCount)},
              {"failures", strfmt("%zu", outcome.trace.failures)}});

  if (noTimes)
    std::printf("%-10s %-8s %-7s %12s %6s %6s %8s %8s\n", "kernel",
                "flow", "status", "latency", "DSP", "BRAM", "LUT", "FF");
  else
    std::printf("%-10s %-8s %-7s %12s %6s %6s %8s %8s %9s\n", "kernel",
                "flow", "status", "latency", "DSP", "BRAM", "LUT", "FF",
                "wall-ms");
  int failures = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const flow::FlowResult &result = outcome.results[i];
    const char *kernel = result.kernelName.c_str();
    const char *kind = flow::flowKindName(result.kind);
    if (!result.ok) {
      std::printf("%-10s %-8s %-7s %s\n", kernel, kind, "FAIL",
                  firstLine(result.diagnostics).c_str());
      ++failures;
      continue;
    }
    std::string status = "ok";
    if (cosim) {
      std::string error;
      if (!flow::cosimAgainstReference(result, *jobs[i].spec, error)) {
        status = "MISMATCH";
        ++failures;
      } else {
        status = "ok+cosim";
      }
    }
    const vhls::FunctionReport *top = result.synth.top();
    if (noTimes)
      std::printf("%-10s %-8s %-7s %12lld %6lld %6lld %8lld %8lld\n",
                  kernel, kind, status.c_str(),
                  static_cast<long long>(top->latencyCycles),
                  static_cast<long long>(top->resources.dsp),
                  static_cast<long long>(top->resources.bram),
                  static_cast<long long>(top->resources.lut),
                  static_cast<long long>(top->resources.ff));
    else
      std::printf("%-10s %-8s %-7s %12lld %6lld %6lld %8lld %8lld %9.1f\n",
                  kernel, kind, status.c_str(),
                  static_cast<long long>(top->latencyCycles),
                  static_cast<long long>(top->resources.dsp),
                  static_cast<long long>(top->resources.bram),
                  static_cast<long long>(top->resources.lut),
                  static_cast<long long>(top->resources.ff),
                  outcome.trace.jobs[i].wallMs);
  }
  if (noTimes)
    // No thread count either: serial and parallel runs must diff clean.
    std::printf("\n%zu jobs: %zu failed\n", outcome.trace.jobCount,
                outcome.trace.failures);
  else
    std::printf("\n%s, %zu failed\n", outcome.trace.summary().c_str(),
                outcome.trace.failures);
  if (timePasses)
    std::fprintf(stderr, "%s", metrics::passTimesTable().c_str());
  if (statsFlag)
    std::fprintf(stderr, "%s", metrics::statisticsReport().c_str());
  if (stageCache) {
    // One-line cache summary on stderr — stdout must stay byte-identical
    // between cached and uncached runs (the CI determinism diff).
    flow::StageCache::Counters cache = flow::StageCache::global().counters();
    std::fprintf(stderr,
                 "stage-cache: %lld hits, %lld misses (%.1f%% hit rate), "
                 "%lld bytes resident\n",
                 static_cast<long long>(cache.hits()),
                 static_cast<long long>(cache.misses()),
                 100.0 * cache.hitRate(),
                 static_cast<long long>(cache.bytes()));
  }
  if (!tracePath.empty() &&
      !obscli::writeJsonArtifact("trace", tracePath, outcome.traceJson()))
    return 1;
  if (!chromeTracePath.empty() &&
      !obscli::writeJsonArtifact("chrome trace", chromeTracePath,
                                 tracer.chromeTraceJson()))
    return 1;
  if (!obs.finish())
    return 1;
  return failures == 0 ? 0 : 1;
}
