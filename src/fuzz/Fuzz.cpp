// Fuzz.cpp - campaign driver, report rendering, reproducer replay.
#include "fuzz/Fuzz.h"

#include "lir/LContext.h"
#include "lir/Printer.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <charconv>
#include <filesystem>
#include <optional>

namespace mha::fuzz {

namespace {

/// One splitmix64 round: decorrelates per-program seeds from the campaign
/// seed so seed N and seed N+1 do not generate sibling programs.
uint64_t mix(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeds are 64-bit; JSON numbers are doubles (53-bit mantissa), so they
/// travel as decimal strings.
std::string seedString(uint64_t seed) {
  return strfmt("%llu", static_cast<unsigned long long>(seed));
}

std::optional<uint64_t> parseSeed(const std::string &text) {
  uint64_t value = 0;
  const char *first = text.data();
  const char *last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc() || ptr != last)
    return std::nullopt;
  return value;
}

/// Renders the reduced kernel program's lowered LIR (the parseable .lir
/// reproducer). Empty when the failing stage precedes LIR generation.
std::string loweredLirText(const Program &program,
                           const flow::KernelConfig &config) {
  flow::KernelSpec spec = program.toKernelSpec();
  DiagnosticEngine diags;
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, config);
  if (!mir::verifyModule(module.get(), diags))
    return "";
  mir::MPassManager pm;
  pm.add(mir::createCanonicalizePass());
  pm.add(mir::createAffineToScfPass());
  pm.add(mir::createCanonicalizePass());
  if (!pm.run(module.get(), diags))
    return "";
  lir::LContext lctx;
  std::unique_ptr<lir::Module> lowered =
      lowering::lowerToLIR(module.get(), lctx, lowering::LoweringOptions{},
                           diags);
  if (!lowered)
    return "";
  return lir::printModule(*lowered);
}

std::string genOptionsJson(const GenOptions &gen) {
  return strfmt("{\"maxLoopDepth\":%d,\"maxStmts\":%d,\"maxExprDepth\":%d,"
                "\"maxIrInsts\":%d,\"irArgSets\":%d,\"maxCallHelpers\":%d,"
                "\"maxCallOps\":%d,\"callArgSets\":%d}",
                gen.maxLoopDepth, gen.maxStmts, gen.maxExprDepth,
                gen.maxIrInsts, gen.irArgSets, gen.maxCallHelpers,
                gen.maxCallOps, gen.callArgSets);
}

/// Reads a reproducer's generator options (absent fields keep their
/// defaults); a field that is not an integer within int is refused.
std::optional<GenOptions> genOptionsFromJson(const json::Value &v,
                                             std::string &error) {
  GenOptions gen;
  for (auto [name, field] : {std::pair{"maxLoopDepth", &gen.maxLoopDepth},
                             std::pair{"maxStmts", &gen.maxStmts},
                             std::pair{"maxExprDepth", &gen.maxExprDepth},
                             std::pair{"maxIrInsts", &gen.maxIrInsts},
                             std::pair{"irArgSets", &gen.irArgSets},
                             std::pair{"maxCallHelpers", &gen.maxCallHelpers},
                             std::pair{"maxCallOps", &gen.maxCallOps},
                             std::pair{"callArgSets", &gen.callArgSets}}) {
    const json::Value *m = v.get(name);
    std::optional<int64_t> n = m ? m->asInt() : *field;
    if (!n || *n != static_cast<int>(*n)) {
      error = strfmt("reproducer gen option '%s' is not an int", name);
      return std::nullopt;
    }
    *field = static_cast<int>(*n);
  }
  return gen;
}

/// Checks one campaign position; fills `failure` when the oracle flags it.
std::optional<FuzzFailure> checkOne(const std::string &mode, uint64_t seed,
                                    const FuzzOptions &options) {
  telemetry::Span span(strfmt("fuzz:%s:%s", mode.c_str(),
                              seedString(seed).c_str()),
                       "fuzz");
  ProgramGen gen(seed, options.gen);
  OracleResult result;
  size_t size = 0;
  if (mode == "kernel") {
    Program program = gen.genKernel();
    size = program.size();
    result = checkKernel(program, options.oracle);
  } else if (mode == "calls") {
    CallProgram program = gen.genCalls();
    size = program.size();
    result = checkCalls(program, options.oracle);
  } else {
    IrProgram program = gen.genIr();
    size = program.size();
    result = checkIr(program, options.oracle);
  }
  if (result.ok)
    return std::nullopt;
  FuzzFailure failure;
  failure.mode = mode;
  failure.programSeed = seed;
  failure.result = result;
  failure.originalSize = size;
  failure.reducedSize = size;
  return failure;
}

/// Reduces a flagged program and fills the reproducer text fields.
void reduceFailure(FuzzFailure &failure, const FuzzOptions &options) {
  ProgramGen gen(failure.programSeed, options.gen);
  ReductionTrace trace;
  if (failure.mode == "kernel") {
    Program program = gen.genKernel();
    Program reduced = options.reduce
                          ? reduceKernel(program, failure.result,
                                         options.oracle, options.reducer,
                                         &trace)
                          : program;
    failure.reducedSize = reduced.size();
    failure.reduceAttempts = trace.attempts;
    failure.reducedDescription = reduced.describe();
    failure.reducedLir = loweredLirText(reduced, options.oracle.config);
  } else if (failure.mode == "calls") {
    CallProgram program = gen.genCalls();
    CallProgram reduced =
        options.reduce ? reduceCalls(program, failure.result, options.oracle,
                                     options.reducer, &trace)
                       : program;
    failure.reducedSize = reduced.size();
    failure.reduceAttempts = trace.attempts;
    failure.reducedDescription = reduced.describe();
    failure.reducedLir = reduced.lir();
  } else {
    IrProgram program = gen.genIr();
    IrProgram reduced =
        options.reduce ? reduceIr(program, failure.result, options.oracle,
                                  options.reducer, &trace)
                       : program;
    failure.reducedSize = reduced.size();
    failure.reduceAttempts = trace.attempts;
    failure.reducedDescription = reduced.describe();
    failure.reducedLir = reduced.lir();
  }
}

void writeArtifacts(FuzzFailure &failure, const FuzzOptions &options) {
  if (options.artifactsDir.empty())
    return;
  std::error_code ec;
  std::filesystem::create_directories(options.artifactsDir, ec);
  std::string stem = failure.mode + "-" + seedString(failure.programSeed);
  std::string jsonPath = options.artifactsDir + "/" + stem + ".repro.json";
  if (json::writeFile(jsonPath, failure.reproJson(options.gen) + "\n"))
    failure.artifactJsonPath = jsonPath;
  if (!failure.reducedLir.empty()) {
    std::string lirPath = options.artifactsDir + "/" + stem + ".lir";
    if (writeTextFile(lirPath, failure.reducedLir))
      failure.artifactLirPath = lirPath;
  }
}

} // namespace

const char *fuzzModeName(FuzzOptions::Mode mode) {
  switch (mode) {
  case FuzzOptions::Mode::Kernel:
    return "kernel";
  case FuzzOptions::Mode::Ir:
    return "ir";
  case FuzzOptions::Mode::Calls:
    return "calls";
  case FuzzOptions::Mode::Both:
    return "both";
  case FuzzOptions::Mode::All:
    return "all";
  }
  return "?";
}

uint64_t deriveProgramSeed(uint64_t campaignSeed, uint64_t index) {
  return mix(campaignSeed ^ mix(index + 1));
}

std::string FuzzFailure::reproJson(const GenOptions &gen) const {
  std::string out = "{";
  out += "\"schema\":\"mha.fuzz.repro.v1\"";
  out += ",\"mode\":\"" + json::escape(mode) + "\"";
  out += ",\"seed\":\"" + seedString(programSeed) + "\"";
  out += ",\"kind\":\"" +
         json::escape(failureKindName(result.kind)) + "\"";
  out += ",\"stage\":\"" + json::escape(result.stage) + "\"";
  out += ",\"gen\":" + genOptionsJson(gen);
  out += "}";
  return out;
}

std::string FuzzReport::json() const {
  std::string out = "{";
  out += "\"schema\":\"mha.fuzz.v1\"";
  out += ",\"seed\":\"" + seedString(seed) + "\"";
  out += strfmt(",\"budget\":%d", budget);
  out += ",\"mode\":\"" + json::escape(mode) + "\"";
  out += strfmt(",\"jobs\":%u", jobs);
  out += strfmt(",\"programs\":{\"kernel\":%llu,\"ir\":%llu,\"calls\":%llu}",
                static_cast<unsigned long long>(kernelPrograms),
                static_cast<unsigned long long>(irPrograms),
                static_cast<unsigned long long>(callsPrograms));
  out += ",\"elapsedMs\":" + json::number(elapsedMs);
  out += ",\"clean\":" + std::string(clean() ? "true" : "false");
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    const FuzzFailure &f = failures[i];
    if (i)
      out += ",";
    out += "{";
    out += "\"mode\":\"" + json::escape(f.mode) + "\"";
    out += ",\"seed\":\"" + seedString(f.programSeed) + "\"";
    out += ",\"kind\":\"" +
           json::escape(failureKindName(f.result.kind)) + "\"";
    out += ",\"stage\":\"" + json::escape(f.result.stage) + "\"";
    out += ",\"detail\":\"" + json::escape(f.result.detail) + "\"";
    out += strfmt(",\"originalSize\":%zu,\"reducedSize\":%zu,"
                  "\"reduceAttempts\":%d",
                  f.originalSize, f.reducedSize, f.reduceAttempts);
    out += ",\"reduced\":\"" + json::escape(f.reducedDescription) + "\"";
    out += ",\"lir\":\"" + json::escape(f.reducedLir) + "\"";
    if (!f.artifactJsonPath.empty())
      out += ",\"artifact\":\"" + json::escape(f.artifactJsonPath) + "\"";
    out += "}";
  }
  out += "]}";
  return out;
}

FuzzReport runFuzz(const FuzzOptions &options) {
  telemetry::Span campaignSpan(
      strfmt("fuzz-campaign:%s", fuzzModeName(options.mode)), "fuzz");
  FuzzReport report;
  report.seed = options.seed;
  report.budget = options.budget;
  report.mode = fuzzModeName(options.mode);
  report.jobs = options.jobs == 0 ? 1 : options.jobs;

  std::vector<std::string> modes;
  if (options.mode == FuzzOptions::Mode::Kernel ||
      options.mode == FuzzOptions::Mode::Both ||
      options.mode == FuzzOptions::Mode::All)
    modes.push_back("kernel");
  if (options.mode == FuzzOptions::Mode::Ir ||
      options.mode == FuzzOptions::Mode::Both ||
      options.mode == FuzzOptions::Mode::All)
    modes.push_back("ir");
  if (options.mode == FuzzOptions::Mode::Calls ||
      options.mode == FuzzOptions::Mode::All)
    modes.push_back("calls");

  // (mode, program seed) work list; seeds depend only on the campaign
  // seed and position, never on thread scheduling.
  std::vector<std::pair<std::string, uint64_t>> work;
  for (const std::string &mode : modes)
    for (int i = 0; i < options.budget; ++i)
      work.push_back({mode, deriveProgramSeed(options.seed,
                                              static_cast<uint64_t>(i))});

  std::vector<std::optional<FuzzFailure>> slots(work.size());
  if (report.jobs > 1) {
    ThreadPool pool(report.jobs);
    parallelFor(pool, work.size(), [&](size_t i) {
      telemetry::Tracer::setThreadLane(
          2000 + static_cast<uint32_t>(ThreadPool::currentWorkerIndex()),
          strfmt("fuzz-worker-%d", ThreadPool::currentWorkerIndex()));
      slots[i] = checkOne(work[i].first, work[i].second, options);
    });
  } else {
    for (size_t i = 0; i < work.size(); ++i)
      slots[i] = checkOne(work[i].first, work[i].second, options);
  }

  for (const std::string &mode : modes) {
    uint64_t &counter = mode == "kernel" ? report.kernelPrograms
                        : mode == "calls" ? report.callsPrograms
                                          : report.irPrograms;
    counter += static_cast<uint64_t>(options.budget);
  }

  // Reduction is serial and in campaign order: reproducibility over
  // latency (failures are the rare case).
  for (auto &slot : slots) {
    if (!slot)
      continue;
    telemetry::Span reduceSpan(
        strfmt("fuzz-reduce:%s:%s", slot->mode.c_str(),
               seedString(slot->programSeed).c_str()),
        "fuzz");
    reduceFailure(*slot, options);
    writeArtifacts(*slot, options);
    report.failures.push_back(std::move(*slot));
  }
  report.elapsedMs = campaignSpan.finish();
  return report;
}

std::optional<FuzzFailure> replayRepro(const std::string &reproJson,
                                       const FuzzOptions &options,
                                       std::string &error,
                                       bool *noLongerFails) {
  std::string parseError;
  std::optional<json::Value> doc = json::parse(reproJson, &parseError);
  if (!doc || !doc->isObject()) {
    error = "invalid reproducer JSON: " + parseError;
    return std::nullopt;
  }
  const json::Value *schema = doc->get("schema");
  if (!schema || schema->asString() != "mha.fuzz.repro.v1") {
    error = "unsupported reproducer schema (want mha.fuzz.repro.v1)";
    return std::nullopt;
  }
  const json::Value *mode = doc->get("mode");
  if (!mode ||
      (mode->asString() != "kernel" && mode->asString() != "ir" &&
       mode->asString() != "calls")) {
    error = "reproducer mode must be \"kernel\", \"ir\" or \"calls\"";
    return std::nullopt;
  }
  const json::Value *seedField = doc->get("seed");
  std::optional<uint64_t> seed =
      seedField && seedField->isString() ? parseSeed(seedField->asString())
                                         : std::nullopt;
  if (!seed) {
    error = "reproducer seed must be a decimal string";
    return std::nullopt;
  }
  FuzzOptions replay = options;
  if (const json::Value *gen = doc->get("gen")) {
    std::optional<GenOptions> parsed = genOptionsFromJson(*gen, error);
    if (!parsed)
      return std::nullopt;
    replay.gen = *parsed;
  }

  std::optional<FuzzFailure> failure =
      checkOne(mode->asString(), *seed, replay);
  if (!failure) {
    error = "reproducer no longer fails (bug already fixed?)";
    if (noLongerFails)
      *noLongerFails = true;
    return std::nullopt;
  }
  reduceFailure(*failure, replay);
  writeArtifacts(*failure, replay);
  return failure;
}

} // namespace mha::fuzz
