// TechLibrary.h - FPGA operator characterization for the virtual HLS
// backend.
//
// Latency (cycles), combinational delay (ns, for operator chaining) and
// resource cost per operation class, loosely calibrated to Vitis HLS
// defaults on a mid-range UltraScale+ part at a 10 ns target clock. The
// absolute numbers are a model — the experiments compare two flows through
// the *same* backend, which is what "comparable performance" tests.
#pragma once

#include "lir/Instruction.h"

#include <map>
#include <cstdint>
#include <string>

namespace mha::vhls {

struct ResourceUsage {
  int64_t dsp = 0;
  int64_t bram = 0;
  int64_t lut = 0;
  int64_t ff = 0;

  ResourceUsage &operator+=(const ResourceUsage &other) {
    dsp += other.dsp;
    bram += other.bram;
    lut += other.lut;
    ff += other.ff;
    return *this;
  }
  /// `n` units of this cost.
  ResourceUsage operator*(int64_t n) const {
    return {dsp * n, bram * n, lut * n, ff * n};
  }
};

/// Per-operation characterization.
struct OpInfo {
  int64_t latency = 0;   // pipeline cycles until the result is available
  double delayNs = 0.5;  // combinational delay of the final stage
  ResourceUsage perUnit; // cost of one functional unit instance
  /// Operation class for FU sharing ("fadd", "fmul", "mem", "int", ...).
  std::string fuClass = "int";
};

struct TargetSpec {
  double clockPeriodNs = 10.0;
  /// Ports per BRAM bank (true dual port).
  int memPortsPerBank = 2;
  /// Optional functional-unit allocation limits per class ("fadd",
  /// "fmul", "fdiv", "imul", ...; see OpInfo::fuClass). Absent/0 =
  /// unlimited. Models Vitis' `allocation` directive: the scheduler
  /// serializes operations that exceed the budget.
  std::map<std::string, int> fuLimits;

  int fuLimitFor(const std::string &fuClass) const {
    auto it = fuLimits.find(fuClass);
    return it == fuLimits.end() ? 0 : it->second;
  }
  /// Device capacity, for utilization percentages in reports.
  int64_t deviceDsp = 900;
  int64_t deviceBram = 1824;
  int64_t deviceLut = 274000;
  int64_t deviceFf = 548000;
  /// Per-FSM-state control overhead.
  int64_t lutPerState = 12;
  int64_t ffPerState = 8;
};

/// Characterizes `inst` (type-aware). Calls into hls_* math map to deep
/// pipelined cores; user calls are characterized by the caller using the
/// callee's own report.
OpInfo characterize(const lir::Instruction &inst);

/// BRAM18K blocks needed to hold `bytes`.
int64_t bramBlocksFor(int64_t bytes);

} // namespace mha::vhls
