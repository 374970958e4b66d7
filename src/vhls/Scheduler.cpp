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
#include <set>
#include <span>

namespace mha::vhls {

namespace {

using lir::BasicBlock;
using lir::Function;
using lir::Instruction;
using lir::Opcode;

/// Edges grouped by one end node in compressed rows: node p's edges are
/// edges[begin[p] .. begin[p + 1]).
template <typename Edge> struct EdgeRows {
  std::vector<unsigned> begin;
  std::vector<Edge> edges;

  std::span<const Edge> of(size_t p) const {
    return {edges.data() + begin[p], edges.data() + begin[p + 1]};
  }

  /// Builds the rows of `n` nodes from `forEach(emit)`, which must call
  /// emit(node, edge) for the same edges in the same order each time it
  /// runs: once to count, once to fill.
  template <typename ForEach> static EdgeRows build(size_t n, ForEach forEach) {
    EdgeRows rows;
    rows.begin.assign(n + 1, 0);
    forEach([&](size_t p, const Edge &) { ++rows.begin[p + 1]; });
    for (size_t p = 0; p < n; ++p)
      rows.begin[p + 1] += rows.begin[p];
    rows.edges.resize(rows.begin[n]);
    std::vector<unsigned> next(rows.begin.begin(), rows.begin.end() - 1);
    forEach([&](size_t p, const Edge &edge) { rows.edges[next[p]++] = edge; });
    return rows;
  }
};

/// What scheduling needs to know about one instruction, computed once per
/// function: characterize() and the callee-latency lookup are not cheap
/// enough to repeat for every operand in every sweep. Indexed by
/// Instruction::ordinal().
struct InstCost {
  int64_t latency = 0; // callee-aware result latency
  int64_t start = 0;   // scheduled start cycle
  double delayNs = 0;  // combinational delay (OpInfo::delayNs)
  unsigned pos = 0;    // position in the parent block
  int fuClass = 0;     // dense id of OpInfo::fuClass
  int fuId = -1;       // dense id of a class with an allocation limit
  int base = -1;       // memory ops: dense id of the root pointer
  int array = -1;      // memory ops: index of the root's array, or -1
  bool costed = false; // occupies a functional unit (DSP or LUT cost)
};

/// A pipelined loop body, indexed by position in the latch block.
struct ModuloBody {
  /// A same-block predecessor of an op: `src` must start its latency
  /// cycles before it, `distance` iterations earlier.
  struct InEdge {
    unsigned src = 0;
    int64_t distance = 0;
  };

  std::vector<Instruction *> ops;
  std::vector<int64_t> latency;
  std::vector<int> fuId;
  /// Same-block, non-phi instruction operands, as body positions.
  EdgeRows<unsigned> operandDefs;
  /// Memory dependences between body ops, indexed by destination.
  EdgeRows<InEdge> depsInto;
  /// Memory ops: the row in the scheduler's bankRows_ of the bank class
  /// each one uses (-1 for other ops) and whether that bank is statically
  /// unknown.
  std::vector<int> portRow;
  std::vector<char> bankUnknown;
};

class FunctionScheduler {
public:
  FunctionScheduler(Function &fn, const TargetSpec &target,
                    const std::map<std::string, FunctionReport> &callees)
      : fn_(fn), target_(target), callees_(callees) {}

  FunctionReport run() {
    report_.name = fn_.name();
    costs_.resize(fn_.numberInstructions());
    {
      telemetry::Span span("vhls-arrays", "vhls");
      collectArrays();
    }
    computeCosts();

    telemetry::Span analyses("vhls-analyses", "vhls");
    lir::DominatorTree domTree(fn_);
    lir::LoopInfo loopInfo(fn_, domTree);
    analyses.finish();

    // Schedule every block once (list scheduling).
    {
      telemetry::Span span("vhls-blocks", "vhls");
      for (BasicBlock *bb : domTree.rpo())
        scheduleBlock(bb);
    }

    // Innermost-first loop processing.
    for (lir::Loop *loop : reportLoopOrder(loopInfo))
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
  /// One functional-unit class seen in this function.
  struct FuClass {
    std::string name;
    int limitId = -1; // index into fuLimit_ when the class is limited
    /// Per-unit cost, from the class's last costed op in layout order
    /// (float and double ops of one class differ).
    ResourceUsage perUnit;
  };

  // ====================== arrays & banks ======================

  /// Dense id of a root pointer: arguments by index, then instructions by
  /// ordinal, then any other value in first-seen order.
  int baseId(const lir::Value *root) {
    if (const auto *arg = dyn_cast<lir::Argument>(root))
      return static_cast<int>(arg->index());
    if (const auto *inst = dyn_cast<Instruction>(root)) {
      assert(inst->ordinal() < costs_.size() && "root not numbered");
      return static_cast<int>(fn_.numArgs() + inst->ordinal());
    }
    size_t slot = static_cast<size_t>(
        std::find(otherBases_.begin(), otherBases_.end(), root) -
        otherBases_.begin());
    if (slot == otherBases_.size())
      otherBases_.push_back(root);
    return static_cast<int>(fn_.numArgs() + costs_.size() + slot);
  }

  void collectArrays() {
    arrayOfBase_.assign(fn_.numArgs() + costs_.size(), -1);
    arrays_ = collectArrayBases(fn_);
    for (size_t i = 0; i < arrays_.size(); ++i)
      arrayOfBase_[baseId(arrays_[i].value)] = static_cast<int>(i);
  }

  /// Bank classification of a memory access, relative to `iv` (may be
  /// null for straight-line code). `access`, when given, is the loop
  /// dependence analysis's record of the same access; its subscripts were
  /// linearized in the same `iv` and are reused.
  BankClass classify(const Instruction &memop, const InstCost &cost,
                     const lir::Value *iv,
                     const lir::MemAccess *access = nullptr) {
    static const ArrayBase kScalar;
    const ArrayBase &array = cost.array < 0 ? kScalar : arrays_[cost.array];
    int64_t ivCoef = 0, constant = 0;
    if (array.partition.factor > 1) {
      // Only a partitioned array's bank depends on the subscript.
      unsigned dim = array.partition.dim;
      const lir::Value *index = dimSubscript(memop, dim);
      if (!index)
        return BankClass(); // flat gep on a partitioned array
      lir::LinearSubscript fresh;
      const lir::LinearSubscript *sub = &fresh;
      if (access && access->firstIndex > 0)
        sub = &access->subscripts[2 + dim - access->firstIndex];
      else
        fresh = lir::linearizeInIV(index, iv ? iv : index);
      if (!sub->valid || !sub->symbols.empty())
        return BankClass();
      ivCoef = sub->ivCoef;
      constant = sub->constant;
    }
    return bankClassOf(array.partition, array.extent(), ivCoef, constant);
  }

  // ====================== per-instruction costs ======================

  /// The cost record of an instruction of fn_. run() numbers the function
  /// once and nothing here edits it, so every ordinal stays current.
  InstCost &costOf(const Instruction *inst) {
    assert(inst->function() == &fn_ && inst->ordinal() < costs_.size() &&
           "instruction not numbered in this function");
    return costs_[inst->ordinal()];
  }

  void computeCosts() {
    telemetry::Span span("vhls-costs", "vhls");
    for (BasicBlock *bb : fn_.blockPtrs()) {
      unsigned pos = 0;
      for (auto &inst : *bb) {
        InstCost &cost = costOf(inst.get());
        OpInfo info = characterize(*inst);
        cost.latency = callAwareLatency(inst.get(), info);
        cost.delayNs = info.delayNs;
        cost.pos = pos++;
        cost.fuClass = fuClassId(info.fuClass);
        cost.fuId = fuClasses_[cost.fuClass].limitId;
        cost.costed = info.perUnit.dsp != 0 || info.perUnit.lut != 0;
        if (cost.costed)
          fuClasses_[cost.fuClass].perUnit = info.perUnit;
        bool isStore = inst->opcode() == Opcode::Store;
        if (isStore || inst->opcode() == Opcode::Load) {
          cost.base = baseId(lir::pointerRoot(inst->operand(isStore ? 1 : 0)));
          if (static_cast<size_t>(cost.base) < arrayOfBase_.size())
            cost.array = arrayOfBase_[cost.base];
        }
      }
    }
  }

  /// Dense id of an FU class, in first-seen order; a class with an
  /// allocation limit also gets a dense limit id.
  int fuClassId(const std::string &name) {
    for (size_t c = 0; c < fuClasses_.size(); ++c)
      if (fuClasses_[c].name == name)
        return static_cast<int>(c);
    FuClass cls;
    cls.name = name;
    if (int limit = target_.fuLimitFor(name); limit > 0) {
      cls.limitId = static_cast<int>(fuLimit_.size());
      fuLimit_.push_back(limit);
    }
    fuClasses_.push_back(std::move(cls));
    return static_cast<int>(fuClasses_.size() - 1);
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
    // One reservation row per (base, residue) pair; each row counts the
    // ports in use per cycle.
    bankRows_.clear();
    std::vector<std::vector<int>> portUse;
    std::vector<std::vector<int>> fuUse(fuLimit_.size());
    int64_t blockLat = 0;
    // Calls are control barriers: they start after everything before them
    // and everything after waits for them (no dataflow overlap).
    int64_t barrierFloor = 0;
    int64_t maxEndSoFar = 0;

    for (auto &instPtr : *bb) {
      Instruction *inst = instPtr.get();
      InstCost &cost = costOf(inst);
      assert(cost.pos == slots.size() && "block changed since numbering");
      SchedSlot slot;
      slot.pathDelay = cost.delayNs;
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
        const InstCost &defCost = costOf(def);
        if (defCost.pos >= slots.size())
          continue; // not scheduled yet
        const SchedSlot &defSlot = slots[defCost.pos];
        if (defCost.latency == 0) {
          // Chaining candidate: same cycle if combinational budget holds.
          if (defSlot.start > slot.start) {
            slot.start = defSlot.start;
            slot.pathDelay = defSlot.pathDelay + cost.delayNs;
          } else if (defSlot.start == slot.start) {
            slot.pathDelay = std::max(slot.pathDelay,
                                      defSlot.pathDelay + cost.delayNs);
          }
          if (slot.pathDelay > target_.clockPeriodNs) {
            slot.start += 1;
            slot.pathDelay = cost.delayNs;
          }
        } else {
          int64_t ready = defSlot.start + defCost.latency;
          if (ready > slot.start) {
            slot.start = ready;
            slot.pathDelay = cost.delayNs;
          }
        }
      }

      // Memory port constraint.
      if (inst->opcode() == Opcode::Load || inst->opcode() == Opcode::Store) {
        // Straight-line code has no iteration stride: accesses to one
        // residue share a row whatever their subscript's coefficient.
        BankClass bank = classify(*inst, cost, nullptr);
        bank.ivCoef = 0;
        int row = bankRows_.add(cost.base, bank);
        portUse.resize(bankRows_.rows());
        reserveFirstFree(portUse[row], target_.memPortsPerBank, slot.start);
        if (!bank.known) {
          // Unknown bank blocks a port on every residue class too.
          for (size_t other = 0; other < portUse.size(); ++other)
            if (bankRows_.baseOf(other) == cost.base &&
                other != static_cast<size_t>(row)) {
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
    mb.ops.reserve(body->size());
    mb.latency.reserve(body->size());
    mb.fuId.reserve(body->size());
    for (auto &inst : *body) {
      const InstCost &cost = costOf(inst.get());
      assert(cost.pos == mb.ops.size() && "body changed since numbering");
      mb.ops.push_back(inst.get());
      mb.latency.push_back(cost.latency);
      mb.fuId.push_back(cost.fuId);
    }
    size_t n = mb.ops.size();

    // --- dependences ---
    std::vector<lir::MemAccess> accesses;
    std::vector<int> accessAt(n, -1); // body position -> access index
    {
      telemetry::Span span("vhls-dependences", "vhls");
      accesses = lir::collectLoopAccesses(loop);
      std::vector<lir::LoopDependence> deps =
          lir::analyzeLoopDependences(accesses);
      // Body position of each access (-1 outside the body), once.
      std::vector<int> posOf(accesses.size(), -1);
      for (size_t i = 0; i < accesses.size(); ++i)
        if (accesses[i].inst->parent() == body) {
          posOf[i] = static_cast<int>(accesses[i].pos);
          accessAt[accesses[i].pos] = static_cast<int>(i);
        }
      mb.depsInto = EdgeRows<ModuloBody::InEdge>::build(n, [&](auto emit) {
        for (const lir::LoopDependence &dep : deps) {
          int src = posOf[dep.src], dst = posOf[dep.dst];
          if (src >= 0 && dst >= 0)
            emit(static_cast<size_t>(dst),
                 {static_cast<unsigned>(src), dep.distance});
        }
      });
      // Operands come in position order, so their rows fill in one pass.
      std::vector<unsigned> &defBegin = mb.operandDefs.begin;
      std::vector<unsigned> &defs = mb.operandDefs.edges;
      defBegin.reserve(n + 1);
      for (size_t p = 0; p < n; ++p) {
        defBegin.push_back(static_cast<unsigned>(defs.size()));
        for (unsigned i = 0; i < mb.ops[p]->numOperands(); ++i) {
          const auto *def = dyn_cast<Instruction>(mb.ops[p]->operand(i));
          if (def && def->parent() == body && def->opcode() != Opcode::Phi)
            defs.push_back(costOf(def).pos);
        }
      }
      defBegin.push_back(static_cast<unsigned>(defs.size()));
    }

    // --- ResMII ---
    // Every body load/store gets a reservation row per distinct
    // (base, bank-class) key; unknown banks share their base's key -1.
    mb.portRow.assign(n, -1);
    mb.bankUnknown.assign(n, 0);
    bankRows_.clear();
    for (size_t p = 0; p < n; ++p) {
      Instruction *inst = mb.ops[p];
      if (inst->opcode() != Opcode::Load && inst->opcode() != Opcode::Store)
        continue;
      const InstCost &cost = costOf(inst);
      BankClass bank = classify(
          *inst, cost, loop.indVar,
          accessAt[p] >= 0 ? &accesses[accessAt[p]] : nullptr);
      mb.portRow[p] = bankRows_.add(cost.base, bank);
      mb.bankUnknown[p] = !bank.known;
    }
    // Functional-unit allocation limits contribute too.
    std::vector<int64_t> classOps(fuLimit_.size(), 0);
    for (int fu : mb.fuId)
      if (fu >= 0)
        classOps[fu]++;
    for (size_t fu = 0; fu < classOps.size(); ++fu)
      bankRows_.addAllocation(classOps[fu], fuLimit_[fu]);
    lr.resMII = bankRows_.resMII(target_.memPortsPerBank);

    // --- RecMII ---
    // Each carried edge s->t (distance d) closes a cycle through the
    // longest same-iteration path t -> s:
    //   II*d >= lat(s) + longestPath(t -> s).
    lr.recMII = computeRecMII(mb);

    // --- iterative modulo scheduling ---
    int64_t mii = std::max({lr.resMII, lr.recMII, targetII});
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
  ///
  /// Most targets cannot raise the result, so each first gets an upper
  /// bound from one backward pass: down[p] is the longest path leaving p,
  /// and a path t -> s extended by s's own longest path leaves t, so
  /// longestPath(t -> s) <= down[t] - down[s]. Targets are relaxed in
  /// order of falling bound until no bound exceeds the RecMII found.
  int64_t computeRecMII(const ModuloBody &mb) {
    telemetry::Span span("vhls-recmii", "vhls");
    size_t n = mb.ops.size();
    // Same-iteration successors, each edge weighted by its source latency.
    EdgeRows<unsigned> succ = EdgeRows<unsigned>::build(n, [&](auto emit) {
      for (size_t p = 0; p < n; ++p) {
        for (unsigned def : mb.operandDefs.of(p))
          if (def != p) {
            assert(def < p && "SSA use precedes its def in a loop body");
            emit(def, static_cast<unsigned>(p));
          }
        for (const ModuloBody::InEdge &edge : mb.depsInto.of(p))
          if (edge.distance == 0 && edge.src != p) {
            assert(edge.src < p && "ordering dependence against program order");
            emit(edge.src, static_cast<unsigned>(p));
          }
      }
    });

    std::vector<int64_t> down(n, 0);
    for (size_t p = n; p-- > 0;)
      for (unsigned q : succ.of(p))
        down[p] = std::max(down[p], mb.latency[p] + down[q]);

    struct Target {
      int64_t bound; // >= the RecMII of every carried edge into t
      unsigned t;
      unsigned last; // the furthest carried source into t
    };
    std::vector<Target> targets;
    for (size_t t = 0; t < n; ++t) {
      Target target{0, static_cast<unsigned>(t), static_cast<unsigned>(t)};
      bool carried = false;
      for (const ModuloBody::InEdge &edge : mb.depsInto.of(t))
        if (edge.distance > 0) {
          carried = true;
          target.last = std::max(target.last, edge.src);
          int64_t path =
              edge.src >= t ? std::max<int64_t>(0, down[t] - down[edge.src])
                            : 0;
          target.bound = std::max(
              target.bound,
              recurrenceMII(mb.latency[edge.src] + path, edge.distance));
        }
      if (carried)
        targets.push_back(target);
    }
    std::sort(targets.begin(), targets.end(),
              [](const Target &a, const Target &b) {
                return a.bound != b.bound ? a.bound > b.bound : a.t < b.t;
              });

    const int64_t kNegInf = INT64_MIN / 4;
    std::vector<int64_t> longest(n, kNegInf);
    int64_t recMII = 1;
    for (const Target &target : targets) {
      if (target.bound <= recMII)
        break;
      size_t t = target.t, last = target.last;
      std::fill(longest.begin() + t, longest.begin() + last + 1, kNegInf);
      longest[t] = 0;
      for (size_t p = t; p < last; ++p) {
        if (longest[p] == kNegInf)
          continue;
        for (unsigned q : succ.of(p))
          if (q <= last)
            longest[q] = std::max(longest[q], longest[p] + mb.latency[p]);
      }
      for (const ModuloBody::InEdge &edge : mb.depsInto.of(t)) {
        if (edge.distance <= 0)
          continue;
        int64_t path = edge.src >= t && longest[edge.src] != kNegInf
                           ? longest[edge.src]
                           : 0;
        recMII = std::max(recMII,
                          recurrenceMII(mb.latency[edge.src] + path,
                                        edge.distance));
      }
    }
    return recMII;
  }

  bool tryModuloSchedule(const ModuloBody &mb, int64_t ii,
                         int64_t &depthOut) {
    telemetry::Span span("vhls-modulo-sweeps", "vhls");
    size_t n = mb.ops.size();
    size_t rows = bankRows_.rows();
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
        for (unsigned def : mb.operandDefs.of(p))
          if (placed[def])
            lb = std::max(lb, start[def] +
                                  std::max<int64_t>(mb.latency[def], 0));
        for (const ModuloBody::InEdge &edge : mb.depsInto.of(p))
          if (placed[edge.src])
            lb = std::max(lb, start[edge.src] + mb.latency[edge.src] -
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
                  bankRows_.baseOf(other) == bankRows_.baseOf(row))
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
      costOf(mb.ops[p]).start = start[p];
    return true;
  }

  // ====================== binding ======================

  void bindResources() {
    // FU demand per class: for pipelined bodies ceil(ops/II); for
    // straight-line code the max number of same-class ops issued in one
    // cycle. FUs are reused across regions (max, not sum).
    size_t classes = fuClasses_.size();
    std::vector<int64_t> fuCount(classes, 0), perBody(classes);
    std::vector<std::pair<int, int64_t>> issued; // (class, start cycle)

    for (BasicBlock *bb : fn_.blockPtrs()) {
      auto pipeIt = pipelinedII_.find(bb);
      bool pipelined = pipeIt != pipelinedII_.end();
      std::fill(perBody.begin(), perBody.end(), 0);
      issued.clear();
      for (auto &inst : *bb) {
        const InstCost &cost = costOf(inst.get());
        if (!cost.costed)
          continue;
        if (pipelined)
          perBody[cost.fuClass]++;
        else
          issued.emplace_back(cost.fuClass, cost.start);
      }
      for (size_t cls = 0; cls < classes; ++cls)
        if (perBody[cls] > 0)
          fuCount[cls] = std::max(
              fuCount[cls], pipelinedFuDemand(perBody[cls], pipeIt->second));
      // Same-class ops issued in one cycle are adjacent once sorted.
      std::sort(issued.begin(), issued.end());
      for (size_t i = 0, run = 0; i < issued.size(); ++i) {
        run = i > 0 && issued[i] == issued[i - 1] ? run + 1 : 1;
        int cls = issued[i].first;
        fuCount[cls] = std::max(fuCount[cls], static_cast<int64_t>(run));
      }
    }

    ResourceUsage total;
    for (size_t cls = 0; cls < classes; ++cls) {
      int64_t count = fuCount[cls];
      // The allocation limit caps how many units ever get instantiated.
      if (int limit = fuClasses_[cls].limitId >= 0
                          ? fuLimit_[fuClasses_[cls].limitId]
                          : 0;
          limit > 0)
        count = std::min<int64_t>(count, limit);
      total += fuClasses_[cls].perUnit * count;
    }
    // Control FSM overhead.
    total += fsmOverhead(report_.fsmStates, target_);

    // Memories, in discovery order (arguments first, then allocas as
    // encountered).
    for (const ArrayBase &info : arrays_) {
      ArrayReport ar;
      ar.name = info.onChip && !info.value->hasName() ? "buf"
                                                       : info.value->name();
      ar.bytes = static_cast<int64_t>(info.elementType->sizeInBytes());
      for (int64_t d : info.dims)
        ar.bytes *= d;
      ar.banks = std::max<int64_t>(1, info.partition.factor);
      ar.partition =
          info.partition.factor > 1
              ? strfmt("%s dim=%u factor=%lld",
                       info.partition.cyclic ? "cyclic" : "block",
                       info.partition.dim,
                       static_cast<long long>(info.partition.factor))
              : "-";
      ar.bramBlocks = partitionedBramBlocks(ar.bytes, ar.banks);
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

  std::vector<InstCost> costs_;     // by Instruction::ordinal()
  std::vector<ArrayBase> arrays_;   // in discovery order
  std::vector<int> arrayOfBase_;    // base id -> index into arrays_, or -1
  std::vector<const lir::Value *> otherBases_; // roots beyond args/insts
  std::vector<FuClass> fuClasses_;  // by dense FU-class id
  std::vector<int> fuLimit_;        // allocation limit by dense limit id
  ResMIIAccumulator bankRows_;      // reused by every block and body
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
  {
    telemetry::Span span("vhls-compat", "vhls");
    report.compat = lir::checkHlsCompatibility(module, diags);
  }
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
    {
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
