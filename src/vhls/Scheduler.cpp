#include "vhls/Vhls.h"

#include "vhls/Estimate.h"

#include "lir/LContext.h"
#include "lir/analysis/Dependence.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/LoopUnroll.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

namespace mha::vhls {

namespace {

using lir::BasicBlock;
using lir::Function;
using lir::Instruction;
using lir::Opcode;

/// Identifies which physical memory bank an access can touch.
struct BankClass {
  const lir::Value *base = nullptr;
  bool known = false;   // residue analysis succeeded
  int64_t residue = 0;  // subscript offset mod factor (cyclic)
  int64_t ivCoef = 0;

  bool conflictsWith(const BankClass &other) const {
    if (base != other.base)
      return false;
    if (!known || !other.known)
      return true; // unknown bank may hit anything
    return residue == other.residue && ivCoef == other.ivCoef;
  }
};

/// Array partition directive (cyclic/block on one dimension).
struct PartitionInfo {
  unsigned dim = 0;
  int64_t factor = 1;
  bool cyclic = true;
};

/// Per-pointer-base memory geometry.
struct ArrayInfo {
  const lir::Value *base = nullptr;
  std::string name;
  int64_t bytes = 0;
  PartitionInfo partition;
  bool onChip = false; // alloca (vs. interface argument)
  unsigned partitionedRank = 0;
  std::vector<int64_t> dims;
  size_t order = 0; // discovery order — reports must not depend on the
                    // pointer-keyed map's (allocation-dependent) order
};

const lir::Value *pointerRootOf(const lir::Value *ptr) {
  while (const auto *inst = dyn_cast<Instruction>(ptr)) {
    if (inst->opcode() == Opcode::GEP || inst->opcode() == Opcode::Bitcast)
      ptr = inst->operand(0);
    else
      break;
  }
  return ptr;
}

/// Extracts array dims from a pointer-to-array / array type.
std::vector<int64_t> arrayDims(const lir::Type *type) {
  std::vector<int64_t> dims;
  if (const auto *pt = dyn_cast<lir::PointerType>(type))
    type = pt->isOpaque() ? nullptr : pt->pointee();
  while (type && type->isArray()) {
    const auto *at = cast<lir::ArrayType>(type);
    dims.push_back(static_cast<int64_t>(at->numElements()));
    type = at->element();
  }
  return dims;
}

/// What scheduling needs to know about one instruction, computed once per
/// function: characterize() and the callee-latency lookup are not cheap
/// enough to repeat for every operand in every sweep.
struct InstCost {
  OpInfo info;
  int64_t latency = 0; // callee-aware result latency
  int fuId = -1;       // dense id of a class with an allocation limit
  unsigned pos = 0;    // position in the parent block
  int64_t start = 0;   // scheduled start cycle
};

/// A pipelined loop body, indexed by position in the latch block.
struct ModuloBody {
  /// A same-block predecessor of an op: `src` must start `latency` cycles
  /// before it, `distance` iterations earlier.
  struct InEdge {
    unsigned src = 0;
    int64_t latency = 0;
    int64_t distance = 0;
  };

  std::vector<Instruction *> ops;
  std::vector<int64_t> latency;
  std::vector<int> fuId;
  /// Same-block, non-phi instruction operands, as body positions.
  std::vector<std::vector<unsigned>> operandDefs;
  /// Memory dependences between body ops, indexed by destination.
  std::vector<std::vector<InEdge>> depsInto;
  /// Memory ops: the reservation row of the bank class each one uses (-1
  /// for other ops) and whether that bank is statically unknown.
  std::vector<int> portRow;
  std::vector<char> bankUnknown;
  std::vector<const lir::Value *> rowBase; // base array of each row
};

class FunctionScheduler {
public:
  FunctionScheduler(Function &fn, const TargetSpec &target,
                    const std::map<std::string, FunctionReport> &callees)
      : fn_(fn), target_(target), callees_(callees) {}

  FunctionReport run() {
    report_.name = fn_.name();
    {
      telemetry::Span span("vhls-arrays", "vhls");
      collectArrays();
    }
    computeCosts();

    lir::DominatorTree domTree(fn_);
    lir::LoopInfo loopInfo(fn_, domTree);

    // Innermost-first loop processing.
    std::vector<lir::Loop *> loops;
    for (const auto &loop : loopInfo.loops())
      loops.push_back(loop.get());
    // Stable sort keeps LoopInfo's deterministic (RPO-header) order among
    // loops of equal depth, so report rows come out the same every run.
    std::stable_sort(loops.begin(), loops.end(),
                     [](lir::Loop *a, lir::Loop *b) {
                       return a->depth() > b->depth();
                     });

    // Schedule every block once (list scheduling).
    {
      telemetry::Span span("vhls-blocks", "vhls");
      for (BasicBlock *bb : domTree.rpo())
        scheduleBlock(bb);
    }

    for (lir::Loop *loop : loops)
      processLoop(loop, loopInfo);

    // Function latency: blocks directly at function level + top loops.
    // With the dataflow directive the top-level loop nests run as
    // overlapped tasks: the slowest task dominates instead of the sum
    // (optimistic FIFO model, like Vitis dataflow at II=1 task rate).
    bool dataflow = fn_.hasAttr("xlx.dataflow");
    report_.dataflow = dataflow;
    int64_t latency = 0;
    for (BasicBlock *bb : domTree.rpo())
      if (!loopInfo.loopFor(bb))
        latency += blockLatency_[bb];
    int64_t loopSum = 0, loopMax = 0, taskCount = 0;
    for (lir::Loop *loop : loopInfo.topLevelLoops()) {
      loopSum += loopTotal_[loop];
      loopMax = std::max(loopMax, loopTotal_[loop]);
      ++taskCount;
    }
    latency += dataflow && taskCount > 1 ? loopMax + taskCount : loopSum;
    report_.latencyCycles = latency;
    report_.fsmStates = fsmStates_;
    report_.achievedPeriodNs = achievedPeriod_;
    {
      telemetry::Span span("vhls-bind", "vhls");
      bindResources();
    }
    return report_;
  }

private:
  // ====================== arrays & banks ======================

  void collectArrays() {
    auto addArray = [&](const lir::Value *base, const std::string &name,
                        const std::vector<int64_t> &dims,
                        lir::Type *elemTy, bool onChip,
                        const lir::MDNode *partitionMD) {
      if (dims.empty())
        return;
      ArrayInfo info;
      info.base = base;
      info.name = name;
      info.dims = dims;
      int64_t elems = 1;
      for (int64_t d : dims)
        elems *= d;
      info.bytes = elems * static_cast<int64_t>(elemTy->sizeInBytes());
      info.onChip = onChip;
      if (partitionMD && partitionMD->size() > 0) {
        // First triple wins (one partition directive per array here).
        const lir::MDNode *triple = partitionMD->getNode(0);
        if (triple && triple->size() >= 3) {
          info.partition.dim = static_cast<unsigned>(triple->getInt(0));
          info.partition.factor = triple->getInt(1);
          info.partition.cyclic = triple->getString(2) != "block";
        }
      }
      info.order = arrays_.size();
      arrays_[base] = info;
    };

    for (const auto &arg : fn_.args()) {
      std::vector<int64_t> dims = arrayDims(arg->type());
      if (dims.empty())
        continue;
      lir::Type *elem = arg->type();
      while (const auto *pt = dyn_cast<lir::PointerType>(elem))
        elem = pt->pointee();
      while (const auto *at = dyn_cast<lir::ArrayType>(elem))
        elem = at->element();
      addArray(arg.get(), arg->name(), dims, elem, /*onChip=*/false,
               arg->getMetadata("xlx.array_partition"));
    }
    for (BasicBlock *bb : fn_.blockPtrs()) {
      for (auto &inst : *bb) {
        if (inst->opcode() != Opcode::Alloca)
          continue;
        std::vector<int64_t> dims;
        lir::Type *elem = inst->allocatedType();
        while (const auto *at = dyn_cast<lir::ArrayType>(elem)) {
          dims.push_back(static_cast<int64_t>(at->numElements()));
          elem = at->element();
        }
        addArray(inst.get(), inst->hasName() ? inst->name() : "buf", dims,
                 elem, /*onChip=*/true,
                 inst->getMetadata("xlx.array_partition"));
      }
    }
  }

  /// Bank classification of a memory access, relative to `iv` (may be
  /// null for straight-line code).
  BankClass classify(const Instruction *memop, const lir::Value *iv) {
    BankClass out;
    const lir::Value *ptr =
        memop->operand(memop->opcode() == Opcode::Store ? 1 : 0);
    out.base = pointerRootOf(ptr);
    auto arrayIt = arrays_.find(out.base);
    if (arrayIt == arrays_.end() || arrayIt->second.partition.factor <= 1) {
      // Unpartitioned: single bank; everyone conflicts -> model as known
      // residue 0.
      out.known = true;
      return out;
    }
    const ArrayInfo &info = arrayIt->second;
    const auto *gep = dyn_cast<Instruction>(ptr);
    if (!gep || gep->opcode() != Opcode::GEP || gep->numOperands() < 3) {
      out.known = false; // flat gep on a partitioned array
      return out;
    }
    unsigned dim = info.partition.dim;
    unsigned opIdx = 2 + dim; // after base and leading zero
    if (opIdx >= gep->numOperands()) {
      out.known = false;
      return out;
    }
    lir::LinearSubscript sub =
        lir::linearizeInIV(gep->operand(opIdx), iv ? iv : gep->operand(opIdx));
    if (!sub.valid || !sub.symbols.empty()) {
      out.known = false;
      return out;
    }
    int64_t f = info.partition.factor;
    if (info.partition.cyclic) {
      out.known = true;
      out.residue = ((sub.constant % f) + f) % f;
      out.ivCoef = sub.ivCoef % f;
    } else {
      // Block partitioning: bank = idx / (extent/factor); the residue is
      // only static for constant subscripts.
      if (sub.ivCoef == 0) {
        int64_t extent = info.dims[dim];
        out.known = true;
        out.residue = sub.constant / std::max<int64_t>(1, extent / f);
      } else {
        out.known = false;
      }
    }
    return out;
  }

  // ====================== per-instruction costs ======================

  void computeCosts() {
    // Dense ids for the FU classes that carry an allocation limit, in the
    // limit map's (sorted) order.
    std::map<std::string, int> fuIds;
    for (const auto &[cls, limit] : target_.fuLimits)
      if (limit > 0) {
        fuIds.emplace(cls, static_cast<int>(fuLimit_.size()));
        fuLimit_.push_back(limit);
      }

    for (BasicBlock *bb : fn_.blockPtrs()) {
      unsigned pos = 0;
      for (auto &inst : *bb) {
        InstCost &cost = costs_[inst.get()];
        cost.info = characterize(*inst);
        cost.latency = callAwareLatency(inst.get(), cost.info);
        if (auto it = fuIds.find(cost.info.fuClass); it != fuIds.end())
          cost.fuId = it->second;
        cost.pos = pos++;
      }
    }
  }

  int64_t callAwareLatency(const Instruction *inst, const OpInfo &info) {
    if (inst->opcode() == Opcode::Call) {
      const Function *callee = inst->calledFunction();
      if (callee && !callee->isDeclaration()) {
        auto it = callees_.find(callee->name());
        if (it != callees_.end())
          return std::max<int64_t>(1, it->second.latencyCycles);
      }
    }
    return info.latency;
  }

  // ====================== straight-line scheduling ======================

  struct SchedSlot {
    int64_t start = 0;
    double pathDelay = 0;
  };

  /// Claims one unit of `table` at the first cycle >= `cycle` that has
  /// fewer than `capacity` units in use; the table grows on demand.
  static void reserveFirstFree(std::vector<int> &table, int capacity,
                               int64_t &cycle) {
    auto at = [&table](int64_t c) -> int & {
      if (static_cast<size_t>(c) >= table.size())
        table.resize(static_cast<size_t>(c) + 1, 0);
      return table[static_cast<size_t>(c)];
    };
    while (at(cycle) >= capacity)
      ++cycle;
    at(cycle)++;
  }

  /// List scheduling with operator chaining and per-bank port limits.
  void scheduleBlock(BasicBlock *bb) {
    std::vector<SchedSlot> slots; // by position in the block
    slots.reserve(bb->size());
    // (base, residue-key) -> reservation row; each row counts the ports
    // in use per cycle.
    std::map<std::pair<const lir::Value *, int64_t>, size_t> portRows;
    std::vector<std::vector<int>> portUse;
    std::vector<const lir::Value *> rowBase;
    std::vector<std::vector<int>> fuUse(fuLimit_.size());
    int64_t blockLat = 0;
    // Calls are control barriers: they start after everything before them
    // and everything after waits for them (no dataflow overlap).
    int64_t barrierFloor = 0;
    int64_t maxEndSoFar = 0;

    for (auto &instPtr : *bb) {
      Instruction *inst = instPtr.get();
      InstCost &cost = costs_[inst];
      const OpInfo &info = cost.info;
      SchedSlot slot;
      slot.pathDelay = info.delayNs;
      slot.start = barrierFloor;
      bool isUserCall = inst->opcode() == Opcode::Call &&
                        inst->calledFunction() &&
                        !inst->calledFunction()->isDeclaration();
      if (isUserCall)
        slot.start = std::max(slot.start, maxEndSoFar);

      for (unsigned i = 0; i < inst->numOperands(); ++i) {
        const auto *def = dyn_cast<Instruction>(inst->operand(i));
        if (!def || def->parent() != bb || def->opcode() == Opcode::Phi)
          continue;
        const InstCost &defCost = costs_[def];
        if (defCost.pos >= slots.size())
          continue; // not scheduled yet
        const SchedSlot &defSlot = slots[defCost.pos];
        if (defCost.latency == 0) {
          // Chaining candidate: same cycle if combinational budget holds.
          if (defSlot.start > slot.start) {
            slot.start = defSlot.start;
            slot.pathDelay = defSlot.pathDelay + info.delayNs;
          } else if (defSlot.start == slot.start) {
            slot.pathDelay = std::max(slot.pathDelay,
                                      defSlot.pathDelay + info.delayNs);
          }
          if (slot.pathDelay > target_.clockPeriodNs) {
            slot.start += 1;
            slot.pathDelay = info.delayNs;
          }
        } else {
          int64_t ready = defSlot.start + defCost.latency;
          if (ready > slot.start) {
            slot.start = ready;
            slot.pathDelay = info.delayNs;
          }
        }
      }

      // Memory port constraint.
      if (inst->opcode() == Opcode::Load || inst->opcode() == Opcode::Store) {
        BankClass bank = classify(inst, nullptr);
        auto key = std::make_pair(bank.base,
                                  bank.known ? bank.residue : int64_t(-1));
        auto [it, added] = portRows.emplace(key, portUse.size());
        if (added) {
          portUse.emplace_back();
          rowBase.push_back(bank.base);
        }
        size_t row = it->second;
        reserveFirstFree(portUse[row], target_.memPortsPerBank, slot.start);
        if (!bank.known) {
          // Unknown bank blocks a port on every residue class too.
          for (size_t other = 0; other < portUse.size(); ++other)
            if (rowBase[other] == bank.base && other != row) {
              std::vector<int> &use = portUse[other];
              if (static_cast<size_t>(slot.start) >= use.size())
                use.resize(static_cast<size_t>(slot.start) + 1, 0);
              use[static_cast<size_t>(slot.start)]++;
            }
        }
      }
      // Functional-unit allocation limit (Vitis `allocation` directive).
      if (cost.fuId >= 0)
        reserveFirstFree(fuUse[cost.fuId], fuLimit_[cost.fuId], slot.start);

      slots.push_back(slot);
      achievedPeriod_ = std::max(achievedPeriod_, slot.pathDelay);
      blockLat = std::max(blockLat, slot.start + cost.latency);
      maxEndSoFar = std::max(maxEndSoFar, slot.start + cost.latency);
      if (isUserCall)
        barrierFloor = slot.start + cost.latency;
      cost.start = slot.start;
    }
    // Every block costs at least one FSM state.
    blockLatency_[bb] = std::max<int64_t>(1, blockLat);
    fsmStates_ += blockLatency_[bb];
  }

  // ====================== loops ======================

  void processLoop(lir::Loop *loop, lir::LoopInfo &loopInfo) {
    LoopReport lr;
    lr.name = loop->header()->name();
    lr.depth = loop->depth();

    auto canonical = lir::matchCanonicalLoop(loop);
    if (canonical && canonical->tripCount)
      lr.tripCount = *canonical->tripCount;

    Instruction *latchTerm =
        loop->latch() ? loop->latch()->terminator() : nullptr;
    const lir::MDNode *pipelineMD =
        latchTerm ? latchTerm->getMetadata("xlx.pipeline") : nullptr;
    if (lr.tripCount < 0 && latchTerm) {
      if (const lir::MDNode *tripMD = latchTerm->getMetadata("xlx.tripcount"))
        if (tripMD->isInt(0))
          lr.tripCount = tripMD->getInt(0);
    }
    int64_t targetII = 0;
    if (pipelineMD && pipelineMD->isInt(0))
      targetII = std::max<int64_t>(1, pipelineMD->getInt(0));
    lr.targetII = targetII;
    lr.pipelined = targetII > 0;

    int64_t trip = lr.tripCount >= 0 ? lr.tripCount : 1;

    bool canPipeline = lr.pipelined && loop->isInnermost() && canonical &&
                       loop->blocks().size() == 2;
    if (lr.pipelined && !canPipeline) {
      lr.note = loop->isInnermost() ? "not pipelined: irregular loop shape"
                                    : "not pipelined: contains subloop";
      lr.pipelined = false;
    }

    if (lr.pipelined) {
      moduloSchedule(*canonical, targetII, lr);
      lr.totalLatency =
          pipelinedLoopLatency(lr.iterationLatency, trip, lr.achievedII);
    } else if (tryFlatten(loop, loopInfo, trip, lr)) {
      // Perfect nest over a pipelined inner loop: flatten (Vitis default)
      // so the pipeline fill/flush is paid once, not per outer iteration.
    } else {
      // Sequential: per-iteration latency is the header test plus the
      // directly-contained blocks plus nested loop totals.
      int64_t iter = 0;
      for (BasicBlock *bb : loop->blocks())
        if (loopInfo.loopFor(bb) == loop)
          iter += blockLatency_[bb];
      for (lir::Loop *sub : loop->subLoops())
        iter += loopTotal_[sub];
      lr.iterationLatency = iter;
      lr.totalLatency = sequentialLoopLatency(trip, iter);
    }
    loopTotal_[loop] = lr.totalLatency;
    loopReports_[loop] = lr;
    report_.loops.push_back(lr);
  }

  /// Flattens a perfectly-nested sequential loop over one pipelined (or
  /// itself flattened) subloop: the nest runs as a single pipeline of
  /// outerTrip * innerIterations at the inner II. Requires the blocks the
  /// outer loop contributes directly to be pure control (no datapath).
  bool tryFlatten(lir::Loop *loop, lir::LoopInfo &loopInfo, int64_t trip,
                  LoopReport &lr) {
    if (loop->subLoops().size() != 1 || trip <= 0)
      return false;
    auto subIt = loopReports_.find(loop->subLoops()[0]);
    if (subIt == loopReports_.end())
      return false;
    const LoopReport &sub = subIt->second;
    if (!sub.pipelined || sub.achievedII <= 0 || sub.tripCount <= 0)
      return false;
    // Directly-contained blocks must be control-only.
    for (BasicBlock *bb : loop->blocks()) {
      if (loopInfo.loopFor(bb) != loop)
        continue;
      for (auto &inst : *bb) {
        switch (inst->opcode()) {
        case Opcode::Phi:
        case Opcode::ICmp:
        case Opcode::Add:
        case Opcode::Sub:
        case Opcode::Br:
        case Opcode::CondBr:
          continue;
        default:
          return false;
        }
      }
    }
    // Total iterations of the flattened pipeline.
    int64_t innerIters = sub.tripCount;
    lr.achievedII = sub.achievedII;
    lr.recMII = sub.recMII;
    lr.resMII = sub.resMII;
    lr.iterationLatency = sub.iterationLatency;
    lr.tripCount = trip * innerIters; // flattened trip
    lr.pipelined = true;
    lr.note = "flattened";
    lr.totalLatency = pipelinedLoopLatency(sub.iterationLatency, lr.tripCount,
                                           sub.achievedII);
    return true;
  }

  /// Modulo scheduling of a canonical innermost loop body (the latch
  /// block). Computes RecMII from loop-carried dependences, ResMII from
  /// memory-port pressure, then finds the smallest feasible II.
  void moduloSchedule(lir::CanonicalLoop &loop, int64_t targetII,
                      LoopReport &lr) {
    BasicBlock *body = loop.loop->latch();
    ModuloBody mb;
    for (auto &inst : *body) {
      const InstCost &cost = costs_[inst.get()];
      mb.ops.push_back(inst.get());
      mb.latency.push_back(cost.latency);
      mb.fuId.push_back(cost.fuId);
    }
    size_t n = mb.ops.size();
    auto bodyPos = [&](const lir::Value *v) -> std::optional<unsigned> {
      const auto *inst = dyn_cast<Instruction>(v);
      if (!inst || inst->parent() != body)
        return std::nullopt;
      return costs_[inst].pos;
    };

    // --- dependences ---
    mb.operandDefs.resize(n);
    mb.depsInto.resize(n);
    {
      telemetry::Span span("vhls-dependences", "vhls");
      std::vector<lir::LoopDependence> deps =
          lir::analyzeLoopDependences(lir::collectLoopAccesses(loop));
      for (const lir::LoopDependence &dep : deps) {
        std::optional<unsigned> src = bodyPos(dep.src);
        std::optional<unsigned> dst = bodyPos(dep.dst);
        if (src && dst)
          mb.depsInto[*dst].push_back(
              {*src, mb.latency[*src], dep.distance});
      }
      for (size_t p = 0; p < n; ++p)
        for (unsigned i = 0; i < mb.ops[p]->numOperands(); ++i) {
          const auto *def = dyn_cast<Instruction>(mb.ops[p]->operand(i));
          if (def && def->parent() == body && def->opcode() != Opcode::Phi)
            mb.operandDefs[p].push_back(costs_[def].pos);
        }
    }

    // --- ResMII ---
    // Every body load/store gets a reservation row per distinct
    // (base, bank-class) key. The maps are pointer-keyed, so iteration
    // order varies run to run; that is safe because the loops below only
    // max-reduce into resMII and row ids only name tables. Don't let
    // these maps leak into report ordering (arrays_ has an explicit
    // `order` field for that reason).
    mb.portRow.assign(n, -1);
    mb.bankUnknown.assign(n, 0);
    std::map<std::pair<const lir::Value *, int64_t>, int> rows;
    std::map<std::pair<const lir::Value *, int64_t>, int64_t> classCount;
    std::map<const lir::Value *, int64_t> unknownCount;
    for (size_t p = 0; p < n; ++p) {
      Instruction *inst = mb.ops[p];
      if (inst->opcode() != Opcode::Load && inst->opcode() != Opcode::Store)
        continue;
      BankClass bank = classify(inst, loop.indVar);
      int64_t classKey = bank.residue * 1000 + bank.ivCoef;
      if (bank.known)
        classCount[{bank.base, classKey}]++;
      else
        unknownCount[bank.base]++;
      auto key = std::make_pair(bank.base, bank.known ? classKey : -1);
      auto [it, added] =
          rows.emplace(key, static_cast<int>(mb.rowBase.size()));
      if (added)
        mb.rowBase.push_back(bank.base);
      mb.portRow[p] = it->second;
      mb.bankUnknown[p] = !bank.known;
    }
    int64_t resMII = 1;
    for (auto &[key, count] : classCount) {
      int64_t total = count + unknownCount[key.first];
      resMII = std::max(resMII,
                        portLimitedMII(total, target_.memPortsPerBank));
    }
    for (auto &[base, count] : unknownCount)
      resMII = std::max(resMII,
                        portLimitedMII(count, target_.memPortsPerBank));
    // Functional-unit allocation limits contribute too.
    std::vector<int64_t> classOps(fuLimit_.size(), 0);
    for (int fu : mb.fuId)
      if (fu >= 0)
        classOps[fu]++;
    for (size_t fu = 0; fu < classOps.size(); ++fu)
      if (classOps[fu] > 0)
        resMII = std::max(resMII,
                          allocationLimitedMII(classOps[fu], fuLimit_[fu]));
    lr.resMII = resMII;

    // --- RecMII ---
    // Each carried edge s->t (distance d) closes a cycle through the
    // longest same-iteration path t -> s:
    //   II*d >= lat(s) + longestPath(t -> s).
    lr.recMII = computeRecMII(mb, body);

    // --- iterative modulo scheduling ---
    int64_t mii = std::max({resMII, lr.recMII, targetII});
    for (int64_t ii = mii; ii <= mii + 128; ++ii) {
      int64_t depth = 0;
      if (tryModuloSchedule(mb, ii, depth)) {
        lr.achievedII = ii;
        lr.iterationLatency = depth;
        pipelinedII_[body] = ii;
        return;
      }
    }
    // Should not happen; fall back to sequential.
    lr.achievedII = blockLatency_[body];
    lr.iterationLatency = blockLatency_[body];
    lr.note = "modulo scheduling failed; serialized";
  }

  /// RecMII of a loop body. The same-iteration edges (SSA uses inside the
  /// body plus distance-0 memory ordering, which the dependence analysis
  /// emits in program order) all point forward in the block, so program
  /// order is a topological order: one forward relaxation per distinct
  /// carried-dependence target gives every longest path that target needs,
  /// and a path t -> s can only visit positions in [t, s].
  int64_t computeRecMII(const ModuloBody &mb, const BasicBlock *body) {
    telemetry::Span span("vhls-recmii", "vhls");
    size_t n = mb.ops.size();
    // Same-iteration successors, each edge weighted by its source latency.
    std::vector<std::vector<unsigned>> succ(n);
    for (size_t p = 0; p < n; ++p) {
      for (const lir::Use *use : mb.ops[p]->uses()) {
        const auto *user = dyn_cast<Instruction>(use->user());
        if (!user || user->parent() != body)
          continue;
        unsigned q = costs_[user].pos;
        if (q != p) {
          assert(q > p && "SSA use precedes its def in a loop body");
          succ[p].push_back(q);
        }
      }
      for (const ModuloBody::InEdge &edge : mb.depsInto[p])
        if (edge.distance == 0 && edge.src != p) {
          assert(edge.src < p && "ordering dependence against program order");
          succ[edge.src].push_back(static_cast<unsigned>(p));
        }
    }

    const int64_t kNegInf = INT64_MIN / 4;
    std::vector<int64_t> longest(n, kNegInf);
    int64_t recMII = 1;
    for (size_t t = 0; t < n; ++t) {
      // The furthest carried source into t bounds the relaxation.
      size_t last = t;
      bool carried = false;
      for (const ModuloBody::InEdge &edge : mb.depsInto[t])
        if (edge.distance > 0) {
          carried = true;
          last = std::max<size_t>(last, edge.src);
        }
      if (!carried)
        continue;
      std::fill(longest.begin() + t, longest.begin() + last + 1, kNegInf);
      longest[t] = 0;
      for (size_t p = t; p < last; ++p) {
        if (longest[p] == kNegInf)
          continue;
        for (unsigned q : succ[p])
          if (q <= last)
            longest[q] = std::max(longest[q], longest[p] + mb.latency[p]);
      }
      for (const ModuloBody::InEdge &edge : mb.depsInto[t]) {
        if (edge.distance <= 0)
          continue;
        int64_t path = edge.src >= t && longest[edge.src] != kNegInf
                           ? longest[edge.src]
                           : 0;
        recMII = std::max(recMII,
                          recurrenceMII(edge.latency + path, edge.distance));
      }
    }
    return recMII;
  }

  bool tryModuloSchedule(const ModuloBody &mb, int64_t ii,
                         int64_t &depthOut) {
    telemetry::Span span("vhls-modulo-sweeps", "vhls");
    size_t n = mb.ops.size();
    size_t rows = mb.rowBase.size();
    size_t slots = static_cast<size_t>(ii);
    std::vector<int64_t> start(n, 0);
    std::vector<char> placed(n, 0);
    // Reservation tables (rebuilt per sweep): one row of `ii` modulo
    // slots per bank class and per limited FU class.
    std::vector<int> portUse(rows * slots), fuUse(fuLimit_.size() * slots);
    std::vector<char> rowUsed(rows);
    // Claims one unit of `row` at the first slot from `cycle` that has
    // room, trying at most one full turn of the table.
    auto reserve = [ii](int *row, int capacity, int64_t &cycle) {
      int64_t tries = 0;
      while (row[cycle % ii] >= capacity) {
        ++cycle;
        if (++tries > ii)
          return false;
      }
      row[cycle % ii]++;
      return true;
    };

    // One sweep places every op in program order against fresh tables.
    // Returns false when an op finds no free slot; `changed` reports
    // whether any start cycle moved.
    auto sweep = [&](bool &changed) {
      std::fill(portUse.begin(), portUse.end(), 0);
      std::fill(fuUse.begin(), fuUse.end(), 0);
      std::fill(rowUsed.begin(), rowUsed.end(), 0);
      for (size_t p = 0; p < n; ++p) {
        int64_t lb = 0;
        for (unsigned def : mb.operandDefs[p])
          if (placed[def])
            lb = std::max(lb, start[def] +
                                  std::max<int64_t>(mb.latency[def], 0));
        for (const ModuloBody::InEdge &edge : mb.depsInto[p])
          if (placed[edge.src])
            lb = std::max(lb, start[edge.src] + edge.latency -
                                  ii * edge.distance);
        int64_t cycle = std::max(lb, int64_t(0));
        if (int row = mb.portRow[p]; row >= 0) {
          rowUsed[row] = 1;
          if (!reserve(&portUse[row * slots], target_.memPortsPerBank,
                       cycle))
            return false;
          // An unknown bank blocks a port on every bank class of its
          // array that is already in the table.
          if (mb.bankUnknown[p])
            for (size_t other = 0; other < rows; ++other)
              if (rowUsed[other] && other != static_cast<size_t>(row) &&
                  mb.rowBase[other] == mb.rowBase[row])
                portUse[other * slots + cycle % ii]++;
        }
        if (int fu = mb.fuId[p];
            fu >= 0 && !reserve(&fuUse[fu * slots], fuLimit_[fu], cycle))
          return false;
        if (!placed[p] || start[p] != cycle) {
          start[p] = cycle;
          placed[p] = 1;
          changed = true;
        }
      }
      return true;
    };

    int sweeps = 0;
    bool changed = true, ok = true;
    while (ok && changed) {
      changed = false;
      ok = ++sweeps <= 64 && sweep(changed);
    }
    span.addArg("ii", std::to_string(ii));
    span.addArg("sweeps", std::to_string(sweeps));
    if (!ok)
      return false;
    int64_t depth = 1;
    for (size_t p = 0; p < n; ++p)
      depth = std::max(depth, start[p] + std::max<int64_t>(mb.latency[p], 1));
    depthOut = depth;
    // Record starts for FU counting.
    for (size_t p = 0; p < n; ++p)
      costs_[mb.ops[p]].start = start[p];
    return true;
  }

  // ====================== binding ======================

  void bindResources() {
    // FU demand per class: for pipelined bodies ceil(ops/II); for
    // straight-line code the max number of same-class ops issued in one
    // cycle. FUs are reused across regions (max, not sum).
    std::map<std::string, int64_t> fuCount;
    std::map<std::string, ResourceUsage> fuCost;

    for (BasicBlock *bb : fn_.blockPtrs()) {
      auto pipeIt = pipelinedII_.find(bb);
      std::map<std::string, std::map<int64_t, int64_t>> perCycle;
      std::map<std::string, int64_t> perBody;
      for (auto &inst : *bb) {
        const InstCost &cost = costs_[inst.get()];
        const OpInfo &info = cost.info;
        if (info.perUnit.dsp == 0 && info.perUnit.lut == 0)
          continue;
        fuCost[info.fuClass] = info.perUnit;
        if (pipeIt != pipelinedII_.end())
          perBody[info.fuClass]++;
        else
          perCycle[info.fuClass][cost.start]++;
      }
      for (auto &[cls, count] : perBody) {
        int64_t ii = pipeIt->second;
        fuCount[cls] = std::max(fuCount[cls], pipelinedFuDemand(count, ii));
      }
      for (auto &[cls, cycles] : perCycle)
        for (auto &[cycle, count] : cycles)
          fuCount[cls] = std::max(fuCount[cls], count);
    }

    ResourceUsage total;
    for (auto &[cls, count] : fuCount) {
      // The allocation limit caps how many units ever get instantiated.
      if (int limit = target_.fuLimitFor(cls); limit > 0)
        count = std::min<int64_t>(count, limit);
      ResourceUsage cost = fuCost[cls];
      total.dsp += cost.dsp * count;
      total.lut += cost.lut * count;
      total.ff += cost.ff * count;
    }
    // Control FSM overhead.
    total += fsmOverhead(report_.fsmStates, target_);

    // Memories, in deterministic discovery order (arguments first, then
    // allocas as encountered) rather than pointer order.
    std::vector<const ArrayInfo *> ordered;
    ordered.reserve(arrays_.size());
    for (auto &[base, arrayInfo] : arrays_)
      ordered.push_back(&arrayInfo);
    std::sort(ordered.begin(), ordered.end(),
              [](const ArrayInfo *a, const ArrayInfo *b) {
                return a->order < b->order;
              });
    for (const ArrayInfo *infoPtr : ordered) {
      const ArrayInfo &info = *infoPtr;
      ArrayReport ar;
      ar.name = info.name;
      ar.bytes = info.bytes;
      ar.banks = std::max<int64_t>(1, info.partition.factor);
      ar.partition =
          info.partition.factor > 1
              ? strfmt("%s dim=%u factor=%lld",
                       info.partition.cyclic ? "cyclic" : "block",
                       info.partition.dim,
                       static_cast<long long>(info.partition.factor))
              : "-";
      ar.bramBlocks = partitionedBramBlocks(info.bytes, ar.banks);
      ar.onChip = info.onChip;
      if (info.onChip)
        total.bram += ar.bramBlocks;
      report_.arrays.push_back(ar);
    }

    // Called user functions instantiate their resources per call site.
    for (BasicBlock *bb : fn_.blockPtrs()) {
      for (auto &inst : *bb) {
        if (inst->opcode() != Opcode::Call)
          continue;
        const Function *callee = inst->calledFunction();
        if (!callee || callee->isDeclaration())
          continue;
        auto it = callees_.find(callee->name());
        if (it != callees_.end())
          total += it->second.resources;
      }
    }
    report_.resources = total;
  }

  Function &fn_;
  const TargetSpec &target_;
  const std::map<std::string, FunctionReport> &callees_;
  FunctionReport report_;

  std::map<const lir::Value *, ArrayInfo> arrays_;
  std::unordered_map<const Instruction *, InstCost> costs_;
  std::vector<int> fuLimit_; // allocation limit by dense FU-class id
  std::map<const BasicBlock *, int64_t> blockLatency_;
  std::map<const lir::Loop *, int64_t> loopTotal_;
  std::map<const lir::Loop *, LoopReport> loopReports_;
  std::map<const BasicBlock *, int64_t> pipelinedII_;
  int64_t fsmStates_ = 0;
  double achievedPeriod_ = 0;
};

/// Applies xlx.unroll directives before scheduling (backend unrolling).
void applyUnrollDirectives(Function &fn) {
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds < 8) {
    changed = false;
    lir::DominatorTree domTree(fn);
    lir::LoopInfo loopInfo(fn, domTree);
    for (const auto &loop : loopInfo.loops()) {
      Instruction *latchTerm =
          loop->latch() ? loop->latch()->terminator() : nullptr;
      if (!latchTerm)
        continue;
      const lir::MDNode *unrollMD = latchTerm->getMetadata("xlx.unroll");
      if (!unrollMD || !unrollMD->isInt(0))
        continue;
      int64_t requested = unrollMD->getInt(0);
      latchTerm->removeMetadata("xlx.unroll");
      auto canonical = lir::matchCanonicalLoop(loop.get());
      if (!canonical || !canonical->tripCount)
        continue;
      int64_t factor = lir::clampUnrollFactor(*canonical->tripCount,
                                              requested);
      if (factor > 1 && lir::unrollLoopByFactor(*canonical, factor)) {
        changed = true;
        break; // loop info invalidated
      }
    }
  }
}

} // namespace

SynthesisReport synthesize(lir::Module &module,
                           const SynthesisOptions &options,
                           DiagnosticEngine &diags) {
  SynthesisReport report;
  report.compat = lir::checkHlsCompatibility(module, diags);
  report.accepted = report.compat.accepted &&
                    (!options.strictAcceptance || report.compat.warnings == 0);
  if (!report.accepted)
    return report;

  // Bottom-up over the (acyclic) call graph: schedule callees first.
  std::map<std::string, FunctionReport> done;
  std::vector<Function *> order;
  std::set<Function *> visited;
  std::function<void(Function *)> visit = [&](Function *fn) {
    if (!visited.insert(fn).second || fn->isDeclaration())
      return;
    for (lir::BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        if (inst->opcode() == Opcode::Call)
          if (Function *callee = inst->calledFunction())
            visit(callee);
    order.push_back(fn);
  };
  for (Function *fn : module.functions())
    visit(fn);

  for (Function *fn : order) {
    if (options.applyUnrollDirectives) {
      telemetry::Span span("vhls-unroll", "vhls");
      applyUnrollDirectives(*fn);
    }
    FunctionScheduler scheduler(*fn, options.target, done);
    FunctionReport fnReport = scheduler.run();
    done[fn->name()] = fnReport;
    report.functions.push_back(std::move(fnReport));
  }
  report.topName = options.topFunction;
  if (report.topName.empty() && !report.functions.empty())
    report.topName = report.functions.back().name;
  return report;
}

} // namespace mha::vhls
