// mha-opt - opt-style driver over MiniLLVM textual IR.
//
//   mha-opt [file.ll] --passes=mem2reg,simplifycfg,adaptor --verify
//   mha-opt file.ll --passes=hls-compat-check
//   mha-opt file.ll --synthesize [--top=name] [--json]
//   mha-opt file.ll --passes=adaptor --time-passes --stats
//          --chrome-trace=out.json --print-ir-after=dce
//   mha-opt multifn.lir --passes=rec2iter,inline,callsite-privatize
//          --top=multifn
//
// Reads from stdin when no file is given. Pass names:
//   mem2reg simplifycfg instcombine cse dce licm
//   rec2iter inline (keeps --top) callsite-privatize
//   descriptor-elim intrinsic-legalize gep-canonicalize ptr-recovery
//   metadata-convert attr-scrub adaptor (= the full pipeline)
//   hls-compat-check (report only)
//
// Telemetry (all output on stderr / to files, never stdout):
//   --time-passes            aggregated per-pass timing table
//   --stats                  per-pass statistics + the non-zero
//                            statistic counters (LLVM-style dump)
//   --chrome-trace=FILE      Chrome trace-event JSON of every pass span
//   --print-ir-before[-all]/--print-ir-after[-all]  IR around passes
#include "ObservabilityCli.h"

#include "adaptor/Adaptor.h"
#include "lir/HlsCompat.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/transforms/Transforms.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "vhls/Vhls.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace mha;

namespace {

std::unique_ptr<lir::ModulePass> makePass(const std::string &name,
                                          const std::string &top) {
  if (name == "mem2reg")
    return lir::createMem2RegPass();
  if (name == "simplifycfg")
    return lir::createSimplifyCFGPass();
  if (name == "instcombine")
    return lir::createInstCombinePass();
  if (name == "cse")
    return lir::createCSEPass();
  if (name == "dce")
    return lir::createDCEPass();
  if (name == "licm")
    return lir::createLICMPass();
  if (name == "rec2iter")
    return lir::createRec2IterPass();
  if (name == "inline") {
    lir::InlinerOptions io;
    io.preservedFunction = top;
    return lir::createInlinerPass(io);
  }
  if (name == "callsite-privatize")
    return lir::createCallSitePrivatizationPass();
  if (name == "descriptor-elim")
    return adaptor::createDescriptorEliminationPass();
  if (name == "intrinsic-legalize")
    return adaptor::createIntrinsicLegalizePass();
  if (name == "gep-canonicalize")
    return adaptor::createGepCanonicalizePass();
  if (name == "ptr-recovery")
    return adaptor::createPointerTypeRecoveryPass();
  if (name == "metadata-convert")
    return adaptor::createMetadataConvertPass();
  if (name == "attr-scrub")
    return adaptor::createAttributeScrubPass();
  if (name == "hls-compat-check")
    return adaptor::createHlsCompatVerifyPass();
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: mha-opt [file.ll] [--passes=p1,p2,...] [--verify] "
               "[--stats]\n"
               "               [--time-passes] [--chrome-trace=out.json]\n"
               "               [--print-ir-before=p|--print-ir-before-all]\n"
               "               [--print-ir-after=p|--print-ir-after-all]\n"
               "               [--synthesize [--top=name] [--json] "
               "[--strict]]\n"
               "               [--metrics-out=m.json] "
               "[--metrics-interval=MS]\n"
               "               [--metrics-prom=m.prom] "
               "[--event-log=e.jsonl]\n"
               "               [--event-log-level=debug|info|warn|error]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string file;
  std::string passList;
  bool verify = false, stats = false, synthesizeIt = false, json = false;
  bool strict = false, timePasses = false;
  std::string top;
  std::string chromeTracePath;
  lir::PrintIRInstrumentation::Options printIR;
  obscli::Options obsOptions;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool obsOk = true;
    if (obscli::parseFlag(arg, obsOptions, obsOk)) {
      if (!obsOk)
        return usage();
    } else if (startsWith(arg, "--passes="))
      passList = arg.substr(9);
    else if (arg == "--verify")
      verify = true;
    else if (arg == "--stats")
      stats = true;
    else if (arg == "--time-passes")
      timePasses = true;
    else if (startsWith(arg, "--chrome-trace="))
      chromeTracePath = arg.substr(15);
    else if (arg == "--print-ir-before-all")
      printIR.beforeAll = true;
    else if (arg == "--print-ir-after-all")
      printIR.afterAll = true;
    else if (startsWith(arg, "--print-ir-before="))
      printIR.beforePasses.push_back(arg.substr(18));
    else if (startsWith(arg, "--print-ir-after="))
      printIR.afterPasses.push_back(arg.substr(17));
    else if (arg == "--synthesize")
      synthesizeIt = true;
    else if (arg == "--json")
      json = true;
    else if (arg == "--strict")
      strict = true;
    else if (startsWith(arg, "--top="))
      top = arg.substr(6);
    else if (arg == "--help" || arg == "-h")
      return usage();
    else if (arg[0] != '-')
      file = arg;
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  telemetry::Tracer &tracer = telemetry::Tracer::global();
  if (!chromeTracePath.empty()) {
    tracer.setEnabled(true);
    telemetry::Tracer::setThreadLane(0, "main");
  }
  if (timePasses)
    metrics::setEnabled(true);

  obscli::Session obs;
  if (!obs.begin(obsOptions))
    return usage();

  std::string source;
  if (file.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    source = buffer.str();
  } else {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = lir::parseModule(source, ctx, diags);
  if (!module) {
    std::fprintf(stderr, "parse error:\n%s", diags.str().c_str());
    return 1;
  }
  if (verify) {
    DiagnosticEngine verifyDiags;
    if (!lir::verifyModule(*module, verifyDiags)) {
      std::fprintf(stderr, "verification failed:\n%s",
                   verifyDiags.str().c_str());
      return 1;
    }
  }

  if (!passList.empty()) {
    lir::PassManager pm(/*verifyEach=*/true);
    lir::PrintIRInstrumentation printer(printIR, std::cerr);
    if (printIR.beforeAll || printIR.afterAll ||
        !printIR.beforePasses.empty() || !printIR.afterPasses.empty())
      pm.addInstrumentation(&printer);
    for (const std::string &name : splitString(passList, ',')) {
      if (name == "adaptor") {
        adaptor::buildAdaptorPipeline(pm, {});
        continue;
      }
      auto pass = makePass(name, top);
      if (!pass) {
        std::fprintf(stderr, "unknown pass '%s'\n", name.c_str());
        return 2;
      }
      pm.add(std::move(pass));
    }
    DiagnosticEngine passDiags;
    bool ok = pm.run(*module, passDiags);
    if (!passDiags.diagnostics().empty())
      std::fprintf(stderr, "%s", passDiags.str().c_str());
    if (stats) {
      for (const lir::PassRunRecord &record : pm.records())
        for (const auto &[key, value] : record.stats)
          std::fprintf(stderr, "%-40s %lld\n", key.c_str(),
                       static_cast<long long>(value));
      std::fprintf(stderr, "%s", metrics::statisticsReport().c_str());
    }
    if (timePasses)
      std::fprintf(stderr, "%s", metrics::passTimesTable().c_str());
    if (!chromeTracePath.empty() &&
        !obscli::writeJsonArtifact("chrome trace", chromeTracePath,
                                   tracer.chromeTraceJson()))
      return 1;
    if (!ok)
      return 1;
  }

  if (synthesizeIt) {
    vhls::SynthesisOptions options;
    options.topFunction = top;
    options.strictAcceptance = strict;
    DiagnosticEngine synthDiags;
    vhls::SynthesisReport report =
        vhls::synthesize(*module, options, synthDiags);
    if (!synthDiags.diagnostics().empty())
      std::fprintf(stderr, "%s", synthDiags.str().c_str());
    std::fputs(json ? report.json().c_str() : report.str().c_str(), stdout);
    if (!obs.finish())
      return 1;
    return report.accepted ? 0 : 1;
  }

  std::fputs(lir::printModule(*module).c_str(), stdout);
  return obs.finish() ? 0 : 1;
}
