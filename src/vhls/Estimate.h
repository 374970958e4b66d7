// Estimate.h - the latency / II / resource algebra and the memory model of
// the virtual HLS backend, factored out of the scheduler.
//
// The scheduler computes *exact* schedules; the DSE QoR estimator predicts
// them analytically from loop structure alone. Both must agree on the
// underlying algebra — how a pipelined loop's total latency follows from
// its depth, trip count and II, how port pressure and allocation limits
// bound the II, how FU demand follows from op counts, and what the control
// FSM and partitioned memories cost. Keeping the formulas here (and
// calling them from Scheduler.cpp) makes "derived from the same
// constraints the scheduler enforces" a structural property instead of a
// copy that can drift. The estimator (dse/QoREstimation.cpp) shares all of
// it, the memory model included: collectArrayBases, dimSubscript,
// bankClassOf, ResMIIAccumulator and reportLoopOrder.
#pragma once

#include "vhls/TechLibrary.h"

#include <algorithm>
#include <vector>

namespace mha::lir {
class Function;
class Loop;
class LoopInfo;
} // namespace mha::lir

namespace mha::vhls {

/// ceil(a / b) for non-negative a and positive b.
inline int64_t ceilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Total cycles of a pipelined loop: fill the depth once, then one
/// initiation per remaining iteration, plus pipeline entry/exit control.
inline int64_t pipelinedLoopLatency(int64_t iterationLatency,
                                    int64_t tripCount, int64_t ii) {
  return iterationLatency + (tripCount - 1) * ii + 2;
}

/// Total cycles of a sequential loop: every iteration pays the full
/// iteration latency, plus the final exit test.
inline int64_t sequentialLoopLatency(int64_t tripCount,
                                     int64_t iterationLatency) {
  return tripCount * iterationLatency + 1;
}

/// Minimum II imposed by one memory bank class: `accesses` contending
/// requests per iteration through `portsPerBank` ports.
inline int64_t portLimitedMII(int64_t accesses, int portsPerBank) {
  return ceilDiv(accesses, portsPerBank);
}

/// Minimum II imposed by a functional-unit allocation limit.
inline int64_t allocationLimitedMII(int64_t ops, int limit) {
  return ceilDiv(ops, limit);
}

/// Minimum II imposed by one loop-carried dependence cycle of
/// `cycleLength` cycles spanning `distance` iterations.
inline int64_t recurrenceMII(int64_t cycleLength, int64_t distance) {
  return ceilDiv(cycleLength, distance);
}

/// Functional units a pipelined body needs to issue `ops` same-class
/// operations every `ii` cycles.
inline int64_t pipelinedFuDemand(int64_t ops, int64_t ii) {
  return ceilDiv(ops, ii);
}

/// Control overhead of the scheduler's one-hot FSM.
inline ResourceUsage fsmOverhead(int64_t fsmStates, const TargetSpec &target) {
  ResourceUsage usage;
  usage.lut = fsmStates * target.lutPerState;
  usage.ff = fsmStates * target.ffPerState;
  return usage;
}

/// BRAM blocks of an array split into `banks` equal banks (each bank is a
/// physically separate memory and rounds up on its own).
inline int64_t partitionedBramBlocks(int64_t bytes, int64_t banks) {
  return banks * bramBlocksFor(bytes / banks);
}

// ====================== memory model ======================

/// Array partition directive (cyclic/block on one dimension), from the
/// first triple of an xlx.array_partition node.
struct PartitionInfo {
  bool directive = false; // a triple was present
  unsigned dim = 0;
  int64_t factor = 1;
  bool cyclic = true;
};

/// An array argument (interface memory) or array alloca (on-chip).
struct ArrayBase {
  const lir::Value *value = nullptr;
  std::vector<int64_t> dims; // outermost first
  lir::Type *elementType = nullptr;
  bool onChip = false;
  PartitionInfo partition;

  /// Elements along the partitioned dimension (1 when it is out of range).
  int64_t extent() const {
    return partition.dim < dims.size() ? dims[partition.dim] : 1;
  }
};

/// The array bases of `fn`: arguments in order, then allocas in layout
/// order.
std::vector<ArrayBase> collectArrayBases(const lir::Function &fn);

/// The subscript of dimension `dim` in the GEP a load/store addresses:
/// operand 2 + dim, past the base and the leading zero. Null when the
/// address is no GEP with that operand.
const lir::Value *dimSubscript(const lir::Instruction &memop, unsigned dim);

/// Which physical memory bank an access can touch, within its base array.
struct BankClass {
  bool known = false;  // residue analysis succeeded
  int64_t residue = 0; // the bank (cyclic: subscript offset mod factor)
  int64_t ivCoef = 0;  // cyclic: bank stride per iteration

  int64_t key() const { return residue * 1000 + ivCoef; }
};

/// Bank class of the subscript ivCoef * iv + constant on an array under
/// `partition` whose partitioned dimension has `extent` elements. An
/// unpartitioned array is one bank, known residue 0. Block banks are only
/// static for a subscript that does not move with the iv. (A partitioned
/// array indexed by anything but a symbol-free linear form has an unknown
/// bank, BankClass(); callers decide that before calling.)
inline BankClass bankClassOf(const PartitionInfo &partition, int64_t extent,
                             int64_t ivCoef, int64_t constant) {
  int64_t f = partition.factor;
  if (f <= 1)
    return {true, 0, 0};
  if (partition.cyclic)
    return {true, ((constant % f) + f) % f, ivCoef % f};
  if (ivCoef == 0)
    return {true, constant / std::max<int64_t>(1, extent / f), 0};
  return {};
}

/// The reservation rows of a block or loop body and the ResMII they imply.
/// An access joins the row of its (base, bank class); a base's unknown-bank
/// accesses share one row. A known class contends with every unknown
/// access to its base, unknown accesses contend among themselves, and each
/// limited FU class bounds the II by its allocation.
class ResMIIAccumulator {
public:
  /// The row of an access to `base` in `bank`; new rows are numbered in
  /// first-use order.
  int add(int base, const BankClass &bank) {
    int64_t key = bank.known ? bank.key() : -1;
    int row = find(base, key);
    if (row < 0) {
      row = static_cast<int>(rows_.size());
      rows_.push_back({base, key, 0, 0});
      if (rows_.size() * 2 > slots_.size())
        rehash();
      else
        place(row);
    }
    ++(bank.known ? rows_[row].known : rows_[row].unknown);
    return row;
  }

  /// `ops` per iteration of an FU class limited to `limit` units (0 means
  /// unlimited).
  void addAllocation(int64_t ops, int limit) {
    if (limit > 0)
      mii_ = std::max(mii_, allocationLimitedMII(ops, limit));
  }

  int64_t resMII(int portsPerBank) const {
    int64_t mii = mii_;
    for (const Row &row : rows_) {
      if (row.known > 0) {
        int unknown = find(row.base, -1);
        int64_t total = row.known + (unknown < 0 ? 0 : rows_[unknown].unknown);
        mii = std::max(mii, portLimitedMII(total, portsPerBank));
      }
      if (row.unknown > 0)
        mii = std::max(mii, portLimitedMII(row.unknown, portsPerBank));
    }
    return mii;
  }

  size_t rows() const { return rows_.size(); }
  int baseOf(size_t row) const { return rows_[row].base; }

  /// Forgets every row; keeps the storage for the next body.
  void clear() {
    rows_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    mii_ = 1;
  }

private:
  struct Row {
    int base;
    int64_t key;            // BankClass::key(), or -1 for an unknown bank
    int64_t known, unknown; // accesses of a known and an unknown bank
  };

  /// First slot to probe for (base, key) in the open-addressed index.
  size_t slotOf(int base, int64_t key) const {
    uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull +
                 static_cast<uint64_t>(base);
    return (h ^ (h >> 29)) & (slots_.size() - 1);
  }
  int find(int base, int64_t key) const {
    size_t mask = slots_.size() - 1;
    for (size_t s = slotOf(base, key); slots_[s]; s = (s + 1) & mask) {
      const Row &row = rows_[slots_[s] - 1];
      if (row.base == base && row.key == key)
        return slots_[s] - 1;
    }
    return -1;
  }
  void place(int row) {
    size_t s = slotOf(rows_[row].base, rows_[row].key);
    while (slots_[s])
      s = (s + 1) & (slots_.size() - 1);
    slots_[s] = row + 1;
  }
  void rehash() {
    slots_.assign(slots_.size() * 2, 0);
    for (size_t row = 0; row < rows_.size(); ++row)
      place(static_cast<int>(row));
  }

  std::vector<Row> rows_;
  /// Row + 1 by hash of (base, key), 0 when empty; a power of two, at
  /// least twice the rows.
  std::vector<int> slots_ = std::vector<int>(16);
  int64_t mii_ = 1; // the allocation-limited part
};

/// The loops of `loopInfo` in report-row order: deepest first, and in
/// LoopInfo's deterministic (RPO-header) order among equals, so report
/// rows come out the same every run and the estimator can match rows to
/// loops by index.
std::vector<lir::Loop *> reportLoopOrder(const lir::LoopInfo &loopInfo);

} // namespace mha::vhls
