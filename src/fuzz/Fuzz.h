// Fuzz.h - differential fuzzing campaigns over the compilation pipeline.
//
// A campaign generates `budget` seeded programs per enabled mode, runs
// each through the differential Oracle (optionally across a shared
// ThreadPool), reduces every failure with the Reducer, and renders a
// machine-readable report (schema "mha.fuzz.v1"). Each failure embeds a
// self-contained reproducer document (schema "mha.fuzz.repro.v1") that
// replayRepro() can re-run and re-reduce later: programs are fully
// determined by (mode, seed, generator options), so the reproducer is a
// few integers, not a serialized AST.
//
// Fuzz.cpp keeps one table row per mode (kernel, ir, calls): its name, its
// program counter in FuzzReport, generate-and-check and
// reduce-and-render. Campaigns, report counters and reproducer replay all
// look a mode up in that table, so a new mode is one new row.
#pragma once

#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Reducer.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mha::fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  int budget = 100; // programs per enabled mode
  unsigned jobs = 1;
  /// Both = kernel + ir (the historical default); All adds calls mode.
  enum class Mode { Kernel, Ir, Calls, Both, All };
  Mode mode = Mode::Both;
  bool reduce = true;
  GenOptions gen;
  OracleOptions oracle;
  ReducerOptions reducer;
  /// When set, write one "<mode>-<seed>.repro.json" (and ".lir" when the
  /// reproducer has printable IR) per failure into this directory.
  std::string artifactsDir;
};

const char *fuzzModeName(FuzzOptions::Mode mode);

struct FuzzFailure {
  std::string mode; // "kernel" | "ir" | "calls"
  uint64_t programSeed = 0;
  OracleResult result;
  size_t originalSize = 0;
  size_t reducedSize = 0;
  int reduceAttempts = 0;
  std::string reducedDescription; // Program::describe / IrProgram::lir
  std::string reducedLir;         // minimized parseable .lir (may be empty
                                  // when the failing stage precedes LIR)
  std::string artifactJsonPath;   // written reproducer files (if any)
  std::string artifactLirPath;

  /// The standalone reproducer document (schema "mha.fuzz.repro.v1").
  std::string reproJson(const GenOptions &gen) const;
};

struct FuzzReport {
  uint64_t seed = 0;
  int budget = 0;
  std::string mode;
  unsigned jobs = 1;
  uint64_t kernelPrograms = 0;
  uint64_t irPrograms = 0;
  uint64_t callsPrograms = 0;
  double elapsedMs = 0;
  std::vector<FuzzFailure> failures;

  bool clean() const { return failures.empty(); }
  /// Full campaign report (schema "mha.fuzz.v1", valid JSON).
  std::string json() const;
};

/// The deterministic per-program seed for campaign position `index`.
uint64_t deriveProgramSeed(uint64_t campaignSeed, uint64_t index);

/// Runs a fuzzing campaign.
FuzzReport runFuzz(const FuzzOptions &options);

/// Re-runs one reproducer document ("mha.fuzz.repro.v1"): regenerates the
/// program, re-checks it, and re-reduces when it still fails. Returns
/// nullopt (with `error` set) when the document is malformed or the
/// program no longer fails; the latter case — the expected outcome after
/// a fix — additionally sets *noLongerFails when provided, so callers can
/// treat it as success rather than a replay error.
std::optional<FuzzFailure> replayRepro(const std::string &reproJson,
                                       const FuzzOptions &options,
                                       std::string &error,
                                       bool *noLongerFails = nullptr);

} // namespace mha::fuzz
