// mha-fuzz - differential fuzzing over the compilation pipeline.
//
//   mha-fuzz [--budget=N] [--seed=N] [--jobs=N]
//            [--mode=kernel|ir|calls|both|all]
//            [--json=out.json] [--artifacts=DIR] [--no-reduce]
//            [--reduce=repro.json] [--plant] [--chrome-trace=out.json]
//            [--stats]
//
// Generates `budget` seeded programs per enabled mode and differentially
// checks each one: kernel-mode programs run through every pipeline stage
// (HLS-C++ round-trip, lowering, adaptor, virtual HLS backend) and every
// stage's interpreted outputs must match the host reference; IR-mode
// programs exercise the LIR parser, interpreter (including trap/UB
// agreement) and the O2-lite transform pipeline; calls-mode programs
// build multi-function modules (helper DAGs, bounded self-recursion,
// local arrays) and must survive the call-legalization passes and the
// virtual HLS backend unchanged. Failures are reduced
// bugpoint-style and reported with an embedded reproducer document;
// --reduce=FILE replays such a document on its own. --plant injects a
// deliberate miscompile after each mode's transform stage (a+b -> a+a on
// the first fadd after the adaptor in kernel mode; on the first add with
// distinct operands after O2-lite in ir mode and after call legalization
// in calls mode) to prove the oracle and reducer actually fire. Exit
// status 0 iff the campaign is clean.
#include "ObservabilityCli.h"

#include "fuzz/Fuzz.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace mha;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mha-fuzz [--budget=N] [--seed=N] [--jobs=N]\n"
      "                [--mode=kernel|ir|calls|both|all] [--json=out.json]\n"
      "                [--artifacts=DIR] [--no-reduce] [--reduce=repro.json]\n"
      "                [--plant] [--chrome-trace=out.json] [--stats]\n"
      "                [--stage-cache]\n"
      "                [--metrics-out=m.json] [--metrics-interval=MS]\n"
      "                [--metrics-prom=m.prom] [--event-log=e.jsonl]\n"
      "                [--event-log-level=debug|info|warn|error]\n");
  return 2;
}

void printFailure(const fuzz::FuzzFailure &f) {
  std::printf("FAIL %-6s seed=%llu kind=%s stage=%s\n", f.mode.c_str(),
              static_cast<unsigned long long>(f.programSeed),
              fuzz::failureKindName(f.result.kind), f.result.stage.c_str());
  std::printf("     %s\n", f.result.detail.c_str());
  std::printf("     reduced %zu -> %zu nodes in %d attempts\n",
              f.originalSize, f.reducedSize, f.reduceAttempts);
  if (!f.artifactJsonPath.empty())
    std::printf("     reproducer: %s\n", f.artifactJsonPath.c_str());
}

} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions options;
  std::string jsonPath, chromeTracePath, replayPath;
  bool statsFlag = false, plant = false;
  int64_t budget = 100, seed = 1, jobs = 1;

  obscli::Options obsOptions;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool obsOk = true;
    if (obscli::parseFlag(arg, obsOptions, obsOk)) {
      if (!obsOk)
        return usage();
    } else if (startsWith(arg, "--budget=")) {
      if (!parseNumericFlag(arg, 9, "--budget", 1, 1 << 20, budget))
        return usage();
    } else if (startsWith(arg, "--seed=")) {
      if (!parseNumericFlag(arg, 7, "--seed", 0, INT64_MAX, seed))
        return usage();
    } else if (startsWith(arg, "--jobs=")) {
      if (!parseNumericFlag(arg, 7, "--jobs", 1, 4096, jobs))
        return usage();
    } else if (startsWith(arg, "--mode=")) {
      std::string mode = arg.substr(7);
      if (mode == "kernel")
        options.mode = fuzz::FuzzOptions::Mode::Kernel;
      else if (mode == "ir")
        options.mode = fuzz::FuzzOptions::Mode::Ir;
      else if (mode == "calls")
        options.mode = fuzz::FuzzOptions::Mode::Calls;
      else if (mode == "both")
        options.mode = fuzz::FuzzOptions::Mode::Both;
      else if (mode == "all")
        options.mode = fuzz::FuzzOptions::Mode::All;
      else {
        std::fprintf(stderr,
                     "unknown mode '%s' (expected kernel, ir, calls, both "
                     "or all)\n",
                     mode.c_str());
        return usage();
      }
    } else if (startsWith(arg, "--json="))
      jsonPath = arg.substr(7);
    else if (startsWith(arg, "--artifacts="))
      options.artifactsDir = arg.substr(12);
    else if (arg == "--no-reduce")
      options.reduce = false;
    else if (startsWith(arg, "--reduce="))
      replayPath = arg.substr(9);
    else if (arg == "--stage-cache")
      options.oracle.useStageCache = true;
    else if (arg == "--plant")
      plant = true;
    else if (startsWith(arg, "--chrome-trace="))
      chromeTracePath = arg.substr(15);
    else if (arg == "--stats")
      statsFlag = true;
    else if (arg == "--help" || arg == "-h")
      return usage();
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  options.budget = static_cast<int>(budget);
  options.seed = static_cast<uint64_t>(seed);
  options.jobs = static_cast<unsigned>(jobs);
  if (plant)
    options.oracle.mutateAdaptorModule = fuzz::plantMiscompile;

  telemetry::Tracer &tracer = telemetry::Tracer::global();
  if (!chromeTracePath.empty()) {
    tracer.setEnabled(true);
    telemetry::Tracer::setThreadLane(1000, "main");
  }

  obscli::Session obs;
  if (!obs.begin(obsOptions))
    return usage();

  int status = 0;
  std::string reportJson;

  if (!replayPath.empty()) {
    std::ifstream in(replayPath, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replayPath.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    bool noLongerFails = false;
    std::optional<fuzz::FuzzFailure> failure =
        fuzz::replayRepro(text.str(), options, error, &noLongerFails);
    if (!failure) {
      if (noLongerFails) {
        std::printf("replay: %s\n", error.c_str());
        return 0;
      }
      std::fprintf(stderr, "replay: %s\n", error.c_str());
      return 1;
    }
    printFailure(*failure);
    if (!failure->reducedLir.empty())
      std::printf("--- reduced LIR ---\n%s", failure->reducedLir.c_str());
    reportJson = failure->reproJson(options.gen);
    status = 1; // the reproducer still fails
  } else {
    fuzz::FuzzReport report = fuzz::runFuzz(options);
    for (const fuzz::FuzzFailure &f : report.failures)
      printFailure(f);
    std::printf("fuzzed %llu kernel + %llu ir + %llu calls programs "
                "(seed %llu, %u jobs) in %.1f ms: %zu failure%s\n",
                static_cast<unsigned long long>(report.kernelPrograms),
                static_cast<unsigned long long>(report.irPrograms),
                static_cast<unsigned long long>(report.callsPrograms),
                static_cast<unsigned long long>(report.seed), report.jobs,
                report.elapsedMs, report.failures.size(),
                report.failures.size() == 1 ? "" : "s");
    reportJson = report.json();
    status = report.clean() ? 0 : 1;
  }

  if (!jsonPath.empty() &&
      !obscli::writeJsonArtifact("fuzz report", jsonPath, reportJson))
    return 1;
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
