// Pass.h - pass pipeline for MiniMLIR modules.
#pragma once

#include "mir/Ops.h"
#include "support/Diagnostics.h"

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

struct MPassRecord {
  std::string passName;
  bool changed = false;
  double millis = 0;
  MPassStats stats;
};

class MPassManager {
public:
  explicit MPassManager(bool verifyEach = true) : verifyEach_(verifyEach) {}

  void add(std::unique_ptr<MPass> pass) { passes_.push_back(std::move(pass)); }

  bool run(ModuleOp module, DiagnosticEngine &diags);

  const std::vector<MPassRecord> &records() const { return records_; }

private:
  bool verifyEach_;
  std::vector<std::unique_ptr<MPass>> passes_;
  std::vector<MPassRecord> records_;
};

} // namespace mha::mir
