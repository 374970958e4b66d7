// mha-dse - design-space exploration over the adaptor flow.
//
//   mha-dse --kernel=NAME
//           [--strategy=exhaustive|random|greedy|refine|genetic|anneal]
//           [--budget=N] [--estimate-budget=N] [--estimate-only]
//           [--seed=N] [--threads=N] [--cosim]
//           [--ii=0,1,2] [--unroll=1,2,4,8] [--partition=1,2,4,8]
//           [--no-dataflow] [--json=out.json] [--cache=qor.json]
//           [--resume] [--chrome-trace=out.json] [--stats]
//
// Enumerates the kernel's valid directive design space (unroll factors
// clamped to divisors of the innermost trip count, dataflow only on
// multi-nest kernels, all-default knobs folded into the unoptimized
// baseline), searches it with the chosen strategy, and prints every
// visited point with the Pareto-archive members marked. Evaluations run
// in parallel on a thread pool behind a config-keyed QoR cache;
// --cache=FILE persists the cache (schema "mha.dse.cache.v1") and
// --resume pre-loads it, re-seeds the Pareto archive from the cached
// points, and skips synthesis for every point already measured.
//
// The refine/genetic/anneal strategies are estimator-guided: they score
// candidates with the analytical QoR estimator (two probe synthesis runs,
// then arithmetic) and only synthesize predicted-frontier points;
// --estimate-budget caps the analytical work and --estimate-only skips
// promotion synthesis entirely (the archive then holds predictions). Every
// run reports the estimator's measured error against its synthesized
// points, on stdout and in the JSON. --json=FILE writes the run (visited
// points + Pareto archive, schema "mha.dse.v1"); --chrome-trace/--stats
// expose the telemetry layer like the other tools. Exit status 0 iff
// every visited point synthesized (and co-simulated, with --cosim).
#include "ObservabilityCli.h"

#include "dse/Dse.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <fstream>

using namespace mha;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mha-dse --kernel=NAME\n"
      "               [--strategy=exhaustive|random|greedy|refine|genetic|"
      "anneal]\n"
      "               [--budget=N] [--estimate-budget=N] [--estimate-only]\n"
      "               [--seed=N] [--threads=N] [--cosim]\n"
      "               [--ii=0,1,2] [--unroll=1,2,4,8] [--partition=1,2,4,8]\n"
      "               [--no-dataflow] [--json=out.json] [--cache=qor.json]\n"
      "               [--resume] [--chrome-trace=out.json] [--stats]\n"
      "               [--metrics-out=m.json] [--metrics-interval=MS]\n"
      "               [--metrics-prom=m.prom] [--event-log=e.jsonl]\n"
      "               [--event-log-level=debug|info|warn|error]\n");
  return 2;
}

/// Parses "--flag=1,2,4" into a list of integers in [min, max].
bool parseListFlag(const std::string &arg, size_t prefixLen,
                   const char *flag, int64_t min, int64_t max,
                   std::vector<int64_t> &out) {
  out.clear();
  for (const std::string &item : splitString(arg.substr(prefixLen), ',')) {
    std::optional<int64_t> parsed = parseInt(item);
    if (!parsed || *parsed < min || *parsed > max) {
      std::fprintf(stderr,
                   "invalid value '%s' for %s (expected integers in "
                   "[%lld, %lld])\n",
                   item.c_str(), flag, static_cast<long long>(min),
                   static_cast<long long>(max));
      return false;
    }
    out.push_back(*parsed);
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty list for %s\n", flag);
    return false;
  }
  return true;
}

/// The design space's candidate list for integer knob `knob`.
std::vector<int64_t> &candidates(dse::DesignSpaceOptions &space,
                                 const flow::Knob &knob) {
  if (knob.intField == &flow::KernelConfig::pipelineII)
    return space.pipelineIIs;
  if (knob.intField == &flow::KernelConfig::unrollFactor)
    return space.unrollFactors;
  return space.partitionFactors;
}

/// Reads one candidate-list flag (--ii=0,1,2, --unroll=..., --partition=...:
/// integers in the knob's range) into `space`. Returns false when `arg`
/// is no list flag; a malformed list sets `ok = false`.
bool parseKnobListFlag(const std::string &arg, dse::DesignSpaceOptions &space,
                       bool &ok) {
  for (const flow::Knob &knob : flow::kKnobs) {
    std::string flag = std::string("--") + knob.name;
    if (knob.isBool() || !startsWith(arg, flag + "="))
      continue;
    ok = parseListFlag(arg, flag.size() + 1, flag.c_str(), knob.min, knob.max,
                       candidates(space, knob));
    return true;
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  std::string kernelName;
  std::string strategyName = "exhaustive";
  std::string jsonPath, cachePath, chromeTracePath;
  bool resume = false, cosim = false, statsFlag = false;
  bool estimateOnly = false;
  int64_t budget = 0, estimateBudget = 0, seed = 0, threads = 0;
  dse::DesignSpaceOptions spaceOptions;

  obscli::Options obsOptions;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool obsOk = true, listOk = true;
    if (obscli::parseFlag(arg, obsOptions, obsOk)) {
      if (!obsOk)
        return usage();
    } else if (startsWith(arg, "--kernel="))
      kernelName = arg.substr(9);
    else if (startsWith(arg, "--strategy="))
      strategyName = arg.substr(11);
    else if (startsWith(arg, "--budget=")) {
      if (!parseNumericFlag(arg, 9, "--budget", 0, 1 << 30, budget))
        return usage();
    } else if (startsWith(arg, "--estimate-budget=")) {
      if (!parseNumericFlag(arg, 18, "--estimate-budget", 0, 1 << 30,
                            estimateBudget))
        return usage();
    } else if (arg == "--estimate-only")
      estimateOnly = true;
    else if (startsWith(arg, "--seed=")) {
      if (!parseNumericFlag(arg, 7, "--seed", 0, INT64_MAX, seed))
        return usage();
    } else if (startsWith(arg, "--threads=")) {
      if (!parseNumericFlag(arg, 10, "--threads", 0, 4096, threads))
        return usage();
    } else if (parseKnobListFlag(arg, spaceOptions, listOk)) {
      if (!listOk)
        return usage();
    } else if (arg == "--no-dataflow")
      spaceOptions.exploreDataflow = false;
    else if (startsWith(arg, "--json="))
      jsonPath = arg.substr(7);
    else if (startsWith(arg, "--cache="))
      cachePath = arg.substr(8);
    else if (arg == "--resume")
      resume = true;
    else if (startsWith(arg, "--chrome-trace="))
      chromeTracePath = arg.substr(15);
    else if (arg == "--cosim")
      cosim = true;
    else if (arg == "--stats")
      statsFlag = true;
    else if (arg == "--help" || arg == "-h")
      return usage();
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  if (kernelName.empty()) {
    std::fprintf(stderr, "--kernel is required\n%s\n",
                 flow::availableKernelsHint().c_str());
    return usage();
  }
  const flow::KernelSpec *spec = flow::findKernel(kernelName);
  if (!spec) {
    std::fprintf(stderr, "unknown kernel '%s'\n%s\n", kernelName.c_str(),
                 flow::availableKernelsHint().c_str());
    // Structured consumers (--json) get the same teaching structurally:
    // an error document listing the valid kernel names (the field the
    // mha-serve protocol also carries on unknown_kernel errors).
    if (!jsonPath.empty()) {
      std::string text = strfmt(
          "{\"schema\": \"mha.dse.error.v1\", \"error\": "
          "\"unknown_kernel\", \"kernel\": \"%s\", \"available_kernels\": [",
          json::escape(kernelName).c_str());
      bool first = true;
      for (const flow::KernelSpec &k : flow::allKernels()) {
        text += strfmt("%s\"%s\"", first ? "" : ", ",
                       json::escape(k.name).c_str());
        first = false;
      }
      text += "]}";
      std::string error;
      if (!json::writeFile(jsonPath, text, &error))
        std::fprintf(stderr, "dse report: %s\n", error.c_str());
    }
    return 2;
  }
  if (!dse::createStrategy(strategyName)) {
    std::string names = joinStrings(dse::strategyNames(), ", ");
    std::fprintf(stderr, "unknown strategy '%s' (available: %s)\n",
                 strategyName.c_str(), names.c_str());
    return 2;
  }
  if (resume && cachePath.empty()) {
    std::fprintf(stderr, "--resume requires --cache=FILE\n");
    return 2;
  }

  telemetry::Tracer &tracer = telemetry::Tracer::global();
  if (!chromeTracePath.empty()) {
    tracer.setEnabled(true);
    telemetry::Tracer::setThreadLane(1000, "main");
  }

  obscli::Session obs;
  if (!obs.begin(obsOptions))
    return usage();

  dse::DesignSpace space(*spec, spaceOptions);
  dse::EvaluatorOptions evalOptions;
  evalOptions.cosim = cosim;
  evalOptions.numThreads = static_cast<unsigned>(threads);
  dse::Evaluator evaluator(*spec, evalOptions);

  if (resume) {
    std::ifstream probe(cachePath);
    if (probe.good()) {
      std::string error;
      if (!evaluator.loadCacheFile(cachePath, &error)) {
        std::fprintf(stderr, "cache: %s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "cache: resumed %zu entries from %s\n",
                   evaluator.cacheSize(), cachePath.c_str());
    }
  }

  dse::StrategyOptions searchOptions;
  searchOptions.budget = static_cast<size_t>(budget);
  searchOptions.estimateBudget = static_cast<size_t>(estimateBudget);
  searchOptions.seed = static_cast<uint64_t>(seed);
  searchOptions.estimateOnly = estimateOnly;
  searchOptions.warmStart = resume;

  std::printf("exploring %s: %zu valid points (min innermost trip %lld%s), "
              "strategy %s\n\n",
              spec->name.c_str(), space.size(),
              static_cast<long long>(space.minInnermostTripCount()),
              space.multiNest() ? ", multi-nest" : "",
              strategyName.c_str());

  elog::info("dse", "exploration starting",
             {{"kernel", spec->name},
              {"strategy", strategyName},
              {"points", strfmt("%zu", space.size())}});
  std::optional<dse::DseResult> result =
      dse::runDse(space, evaluator, strategyName, searchOptions);
  if (!result) { // createStrategy already vetted the name
    std::fprintf(stderr, "strategy construction failed\n");
    return 1;
  }
  elog::info("dse", "exploration finished",
             {{"kernel", spec->name},
              {"evaluated", strfmt("%zu", result->evaluated)},
              {"pareto", strfmt("%zu", result->pareto.size())}});

  std::printf("%-4s %-7s %-10s %-9s %12s %6s %6s %8s %8s  %s\n", "II",
              "unroll", "partition", "dataflow", "latency", "DSP", "BRAM",
              "LUT", "FF", "");
  int failures = 0;
  for (const dse::VisitedPoint &point : result->visited) {
    if (!point.qor.ok || !point.qor.cosimOk) {
      std::printf("%-4lld %-7lld %-10lld %-9s %s\n",
                  static_cast<long long>(point.config.pipelineII),
                  static_cast<long long>(point.config.unrollFactor),
                  static_cast<long long>(point.config.partitionFactor),
                  point.config.dataflow ? "yes" : "-",
                  point.qor.error.c_str());
      ++failures;
      continue;
    }
    bool pareto = false;
    for (const dse::ArchiveEntry &entry : result->pareto)
      if (entry.key == dse::configKey(point.config))
        pareto = true;
    std::printf("%-4lld %-7lld %-10lld %-9s %12lld %6lld %6lld %8lld "
                "%8lld  %s\n",
                static_cast<long long>(point.config.pipelineII),
                static_cast<long long>(point.config.unrollFactor),
                static_cast<long long>(point.config.partitionFactor),
                point.config.dataflow ? "yes" : "-",
                static_cast<long long>(point.qor.latencyCycles),
                static_cast<long long>(point.qor.dsp),
                static_cast<long long>(point.qor.bram),
                static_cast<long long>(point.qor.lut),
                static_cast<long long>(point.qor.ff),
                pareto ? "<-- pareto" : "");
  }

  std::printf("\n%zu/%zu points evaluated (%lld synthesized, %lld cache "
              "hits), %zu on the Pareto frontier\n",
              result->evaluated, result->spaceSize,
              static_cast<long long>(result->synthRuns),
              static_cast<long long>(result->cacheHits),
              result->pareto.size());
  if (result->warmStarted > 0)
    std::printf("warm start: %zu cached points re-seeded the archive\n",
                result->warmStarted);
  if (result->estimator.used) {
    std::printf("estimator: %lld estimates from %lld probe runs",
                static_cast<long long>(result->estimator.estimates),
                static_cast<long long>(result->estimator.probeRuns));
    if (result->estimator.errorSamples > 0)
      std::printf("; error vs %zu synthesized points: latency mean "
                  "%.1f%% max %.1f%%, dsp %.1f%%, bram %.1f%%, lut %.1f%%",
                  result->estimator.errorSamples,
                  result->estimator.latencyMeanAbsPct,
                  result->estimator.latencyMaxAbsPct,
                  result->estimator.dspMeanAbsPct,
                  result->estimator.bramMeanAbsPct,
                  result->estimator.lutMeanAbsPct);
    std::printf("\n");
  }
  if (!result->pareto.empty()) {
    const dse::ArchiveEntry &fastest = result->pareto.front();
    std::printf("fastest design: II=%lld unroll=%lld partition=%lld%s -> "
                "%lld cycles, %lld DSP\n",
                static_cast<long long>(fastest.config.pipelineII),
                static_cast<long long>(fastest.config.unrollFactor),
                static_cast<long long>(fastest.config.partitionFactor),
                fastest.config.dataflow ? " dataflow" : "",
                static_cast<long long>(fastest.qor.latencyCycles),
                static_cast<long long>(fastest.qor.dsp));
  }

  int status = failures == 0 ? 0 : 1;
  if (!jsonPath.empty() &&
      !obscli::writeJsonArtifact("dse report", jsonPath, result->json()))
    return 1;
  if (!cachePath.empty()) {
    std::string error;
    if (!json::writeFile(cachePath, evaluator.cacheJson(), &error)) {
      std::fprintf(stderr, "cache: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "cache: %zu entries written to %s\n",
                 evaluator.cacheSize(), cachePath.c_str());
  }
  if (!chromeTracePath.empty() &&
      !obscli::writeJsonArtifact("chrome trace", chromeTracePath,
                                 tracer.chromeTraceJson()))
    return 1;
  if (statsFlag)
    std::fprintf(stderr, "%s", metrics::statisticsReport().c_str());
  if (!obs.finish())
    return 1;
  return status;
}
