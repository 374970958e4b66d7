// Pass.h - pass pipeline for MiniMLIR modules.
#pragma once

#include "mir/Ops.h"
#include "support/Diagnostics.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mha::mir {

using MPassStats = std::map<std::string, int64_t>;

class MPass {
public:
  virtual ~MPass() = default;
  virtual std::string name() const = 0;
  virtual bool run(ModuleOp module, MPassStats &stats,
                   DiagnosticEngine &diags) = 0;
};

class MLambdaPass : public MPass {
public:
  using Fn = std::function<bool(ModuleOp, MPassStats &, DiagnosticEngine &)>;
  MLambdaPass(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  bool run(ModuleOp module, MPassStats &stats,
           DiagnosticEngine &diags) override {
    return fn_(module, stats, diags);
  }

private:
  std::string name_;
  Fn fn_;
};

struct MPassRecord {
  std::string passName;
  bool changed = false;
  double millis = 0;
  MPassStats stats;
};

/// Observation hooks around each MLIR pass run, mirroring
/// lir::PassInstrumentation: before hooks fire in registration order,
/// after hooks in reverse, and `record` is fully populated (timing,
/// stats) by the time afterPass runs. Implementations must not
/// mutate the module; ones shared across concurrently-running pipelines
/// must be thread-safe.
class MPassInstrumentation {
public:
  virtual ~MPassInstrumentation() = default;
  virtual void beforePass(const MPass &, ModuleOp) {}
  virtual void afterPass(const MPass &, ModuleOp, const MPassRecord &) {}
};

class MPassManager {
public:
  explicit MPassManager(bool verifyEach = true) : verifyEach_(verifyEach) {}

  void add(std::unique_ptr<MPass> pass) { passes_.push_back(std::move(pass)); }
  void add(std::string name, MLambdaPass::Fn fn) {
    passes_.push_back(
        std::make_unique<MLambdaPass>(std::move(name), std::move(fn)));
  }

  /// Registers an observation hook (not owned; must outlive run()).
  void addInstrumentation(MPassInstrumentation *instrumentation) {
    instrumentations_.push_back(instrumentation);
  }

  bool run(ModuleOp module, DiagnosticEngine &diags);

  const std::vector<MPassRecord> &records() const { return records_; }

private:
  bool verifyEach_;
  std::vector<std::unique_ptr<MPass>> passes_;
  std::vector<MPassInstrumentation *> instrumentations_;
  std::vector<MPassRecord> records_;
};

} // namespace mha::mir
