// PassManager.h - a minimal pass pipeline for MiniLLVM modules.
//
// Passes mutate the module in place and report statistics; the pipeline
// optionally re-verifies after each pass (on by default — the adaptor's
// whole point is producing *valid* IR for a picky consumer).
//
// Observability: the pipeline is instrumented. Every pass run is wrapped
// in a telemetry span (category "lir-pass", so a Chrome trace shows the
// pass stack nested under its flow stage) whose finish() is the record's
// time and feeds the --time-passes histogram, and fires registered
// PassInstrumentation hooks: before hooks in registration order, after
// hooks in reverse (LLVM-style), so paired instrumentations nest like
// scopes. The manager does not walk the module between passes; an
// instrumentation that wants IR sizes counts them itself
// (countModuleSize).
#pragma once

#include "support/Diagnostics.h"

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mha::lir {

class Function;
class Module;

/// A named statistic counter; passes use these for the adaptor report.
using PassStats = std::map<std::string, int64_t>;

class ModulePass {
public:
  virtual ~ModulePass() = default;
  virtual std::string name() const = 0;
  /// Returns true if the IR changed.
  virtual bool run(Module &module, PassStats &stats,
                   DiagnosticEngine &diags) = 0;
};

/// A pass whose unit of work is one function, with no cross-function
/// dependencies: run() visits the module's functions in order.
/// runOnFunction mutates only `fn`'s own instructions/blocks; it must not
/// touch other functions' bodies or module-level structure.
class FunctionPass : public ModulePass {
public:
  /// Returns true if `fn` changed.
  virtual bool runOnFunction(Function &fn, PassStats &stats,
                             DiagnosticEngine &diags) = 0;

  /// Serial default: runOnFunction over every function in order.
  bool run(Module &module, PassStats &stats, DiagnosticEngine &diags) override;
};

struct PassRunRecord {
  std::string passName;
  bool changed = false;
  double millis = 0;
  PassStats stats;
};

/// Observation hooks around each pass run. Implementations must not
/// mutate the module. Hooks run on the thread executing the pipeline;
/// one PassManager (and therefore one hook sequence) is always confined
/// to a single thread, but distinct pipelines run concurrently under the
/// batch driver, so implementations shared across PassManagers must be
/// thread-safe.
class PassInstrumentation {
public:
  virtual ~PassInstrumentation() = default;
  virtual void beforePass(const ModulePass &, const Module &) {}
  /// `record` is fully populated (timing, stats) when this runs.
  virtual void afterPass(const ModulePass &, const Module &,
                         const PassRunRecord &) {}
};

/// Prints the module around selected passes (--print-ir-before/after).
class PrintIRInstrumentation : public PassInstrumentation {
public:
  struct Options {
    bool beforeAll = false;
    bool afterAll = false;
    std::vector<std::string> beforePasses; // pass names
    std::vector<std::string> afterPasses;
  };

  PrintIRInstrumentation(Options options, std::ostream &os);

  void beforePass(const ModulePass &pass, const Module &module) override;
  void afterPass(const ModulePass &pass, const Module &module,
                 const PassRunRecord &record) override;

private:
  Options options_;
  std::ostream &os_;
};

/// Counts instructions and basic blocks over every function in `module`.
void countModuleSize(const Module &module, int64_t &insts, int64_t &blocks);

class PassManager {
public:
  explicit PassManager(bool verifyEach = true) : verifyEach_(verifyEach) {}

  void add(std::unique_ptr<ModulePass> pass) {
    passes_.push_back(std::move(pass));
  }

  /// Registers an observation hook (not owned; must outlive run()).
  void addInstrumentation(PassInstrumentation *instrumentation) {
    instrumentations_.push_back(instrumentation);
  }

  /// Runs every pass in order. Returns false if a pass errored or a
  /// post-pass verification failed (remaining passes are skipped).
  bool run(Module &module, DiagnosticEngine &diags);

  const std::vector<PassRunRecord> &records() const { return records_; }

  /// Aggregated statistics over all pass runs.
  PassStats totalStats() const;

private:
  bool verifyEach_;
  std::vector<std::unique_ptr<ModulePass>> passes_;
  std::vector<PassInstrumentation *> instrumentations_;
  std::vector<PassRunRecord> records_;
};

} // namespace mha::lir
