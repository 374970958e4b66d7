#include "dse/QoREstimation.h"

#include "lir/LContext.h"
#include "lir/analysis/Dependence.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/LoopUnroll.h"
#include "vhls/Estimate.h"

#include <algorithm>
#include <map>

namespace mha::dse {

using lir::BasicBlock;
using lir::Instruction;
using lir::Opcode;
using vhls::ceilDiv;
using vhls::ResourceUsage;

/// The structural digest of the probed kernel. Everything estimate() needs
/// is plain data copied out of the probe IR and reports — the probe
/// modules themselves are released after construction.
struct QoREstimation::Model {
  /// One pointer base (argument array, alloca, or a pseudo entry for any
  /// other base a memory access roots at). The partition's factor is the
  /// probe's; estimates use the config's instead.
  struct Array {
    vhls::PartitionInfo partition;
    int64_t extent = 1; // size of the partitioned dimension
  };

  /// One load/store in a target loop's latch: its subscript of the
  /// partitioned dimension = ivCoef * iv + constant (when linear).
  struct Access {
    size_t arrayIdx = 0;
    bool linear = false;   // shaped GEP with a symbol-free linear subscript
    int64_t ivCoef = 0;
    int64_t constant = 0;
  };

  struct Loop {
    std::string name;
    unsigned depth = 1;
    int64_t trip = 1;              // real (unflattened) trip count
    int parent = -1;
    std::vector<int> children;     // indices into loops
    bool topLevel = false;
    bool directiveTarget = false;  // the config's ii/unroll knobs land here
    bool canPipeline = false;      // the probe pipelined it
    bool flattenedAtProbe = false; // probe flattened it over its child
    // Pipelined-probe row (valid when canPipeline).
    int64_t recMII1 = 1;
    int64_t resMII1 = 1;
    int64_t depth1 = 1;
    int64_t iiSlack = 0; // achievedII - max(1, recMII1, resMII1) at probe
    // Baseline-probe decomposition.
    int64_t seqIter = 0;   // per-iteration latency (children included)
    int64_t seqDirect = 0; // seqIter minus the children's totals
    int64_t seqTotal = 0;
    // Latch-body contents (valid when directiveTarget).
    std::vector<Access> accesses;
    std::map<std::string, int64_t> classOps; // fuClass -> ops (for limits)
    std::map<std::string, std::pair<int64_t, ResourceUsage>>
        costedOps;             // fuClass -> (ops, per-unit cost)
    std::map<size_t, int64_t> loadsPerBase; // arrayIdx -> loads per iter
  };

  std::vector<Array> arrays;
  std::vector<Loop> loops;
  int64_t nonLoopLatency = 0; // baseline fn latency minus top-loop totals
  size_t topLoopCount = 0;
  vhls::TargetSpec target;

  flow::KernelConfig baselineConfig;
  flow::KernelConfig pipelinedConfig;
  QoR baselineQoR;
  QoR pipelinedQoR;
  ResourceUsage resBase;  // baseline probe resources
  ResourceUsage resPipe;  // pipelined probe resources
  ResourceUsage resPipeFloor; // resPipe minus the probe's pipelined FU cost

  /// The scheduler's ResMII for `loop`'s latch body unrolled by `factor`
  /// under `config`'s partition factor: replicate every access
  /// r=0..factor-1 (constant += ivCoef*r, ivCoef *= factor), classify each
  /// replica onto its bank class, and bound the II by the most-contended
  /// class (ports) and any FU allocation limits.
  int64_t resMIIFor(const Loop &loop, int64_t factor,
                    const flow::KernelConfig &config) const {
    vhls::ResMIIAccumulator resMII;
    for (const Access &access : loop.accesses) {
      const Array &array = arrays[access.arrayIdx];
      // The factor the scheduler would see in the xlx.array_partition
      // metadata the kernel builder emits for this config.
      vhls::PartitionInfo partition = array.partition;
      partition.factor = partition.directive && config.applyDirectives
                             ? std::max<int64_t>(1, config.partitionFactor)
                             : 1;
      int base = static_cast<int>(access.arrayIdx);
      for (int64_t r = 0; r < factor; ++r)
        resMII.add(base, partition.factor > 1 && !access.linear
                             ? vhls::BankClass()
                             : vhls::bankClassOf(
                                   partition, array.extent,
                                   access.ivCoef * factor,
                                   access.constant + access.ivCoef * r));
    }
    if (!target.fuLimits.empty())
      for (auto &[cls, count] : loop.classOps)
        resMII.addAllocation(count * factor, target.fuLimitFor(cls));
    return resMII.resMII(target.memPortsPerBank);
  }

  /// Extra cycles an unrolled *sequential* body pays over the baseline
  /// iteration: the replicated loads all want to issue immediately, so
  /// the most-contended array's load queue stretches the schedule by its
  /// additional issue slots (straight-line list scheduling serializes a
  /// bank's accesses at memPortsPerBank per cycle, and the partition
  /// directive does not split these classes — without a loop context the
  /// classifier folds every shaped access of a base into one class).
  int64_t sequentialUnrollGrowth(const Loop &loop, int64_t factor) const {
    int64_t growth = 0;
    for (auto &[idx, loads] : loop.loadsPerBase)
      growth = std::max(
          growth, ceilDiv(loads * factor, target.memPortsPerBank) -
                      ceilDiv(loads, target.memPortsPerBank));
    return growth;
  }

  /// Pipelined FU cost under per-loop (unroll factor, II) assignments:
  /// for every class the worst body's ceil(ops*factor / II) units, capped
  /// by any allocation limit, priced at the TechLibrary per-unit cost.
  /// This is the config-dependent slice of bindResources(); everything
  /// else (FSM, straight-line demand, memories) is anchored to the probe
  /// measurements.
  ResourceUsage pipelinedFuCost(
      const std::vector<std::pair<int64_t, int64_t>> &assignment) const {
    std::map<std::string, std::pair<int64_t, ResourceUsage>> demand;
    for (size_t i = 0; i < loops.size(); ++i) {
      auto [factor, ii] = assignment[i];
      if (ii <= 0)
        continue; // loop not pipelined under this config
      for (const auto &[cls, ops] : loops[i].costedOps) {
        int64_t units = vhls::pipelinedFuDemand(ops.first * factor, ii);
        auto [it, inserted] = demand.try_emplace(cls, units, ops.second);
        if (!inserted)
          it->second.first = std::max(it->second.first, units);
      }
    }
    ResourceUsage total;
    for (auto &[cls, unitsCost] : demand) {
      auto [units, cost] = unitsCost;
      if (int limit = target.fuLimitFor(cls); limit > 0)
        units = std::min<int64_t>(units, limit);
      total += cost * units;
    }
    return total;
  }
};

QoREstimation::QoREstimation() = default;
QoREstimation::~QoREstimation() = default;

const flow::KernelConfig &QoREstimation::baselineProbeConfig() const {
  return model_->baselineConfig;
}
const QoR &QoREstimation::baselineProbeQoR() const {
  return model_->baselineQoR;
}
const flow::KernelConfig &QoREstimation::pipelinedProbeConfig() const {
  return model_->pipelinedConfig;
}
const QoR &QoREstimation::pipelinedProbeQoR() const {
  return model_->pipelinedQoR;
}

std::unique_ptr<QoREstimation>
QoREstimation::build(const flow::KernelSpec &spec,
                     const flow::FlowOptions &flowOptions,
                     std::string *error) {
  auto fail = [&](std::string message) -> std::unique_ptr<QoREstimation> {
    if (error)
      *error = std::move(message);
    return nullptr;
  };

  flow::KernelConfig baseConfig;
  baseConfig.applyDirectives = false;
  flow::KernelConfig pipeConfig;
  pipeConfig.pipelineII = 1;
  pipeConfig.unrollFactor = 1;
  pipeConfig.partitionFactor = 2;
  pipeConfig.dataflow = false;

  flow::FlowResult base = flow::runAdaptorFlow(spec, baseConfig, flowOptions);
  QoR baseQoR = qorFromFlowResult(base);
  if (!baseQoR.ok)
    return fail("baseline probe failed: " + baseQoR.error);
  flow::FlowResult pipe = flow::runAdaptorFlow(spec, pipeConfig, flowOptions);
  QoR pipeQoR = qorFromFlowResult(pipe);
  if (!pipeQoR.ok)
    return fail("pipelined probe failed: " + pipeQoR.error);

  const vhls::FunctionReport *baseTop = base.synth.top();
  const vhls::FunctionReport *pipeTop = pipe.synth.top();
  std::string why;
  lir::Function *fn = pipe.topFunction(&why);
  if (!fn)
    return fail("pipelined probe kept no IR for the top function: " + why);
  if (baseTop->loops.size() != pipeTop->loops.size())
    return fail("probe reports disagree on loop structure");

  auto estimation = std::unique_ptr<QoREstimation>(new QoREstimation());
  estimation->spec_ = &spec;
  estimation->model_ = std::make_unique<Model>();
  Model &model = *estimation->model_;
  model.target = flowOptions.synthesis.target;
  model.baselineConfig = baseConfig;
  model.pipelinedConfig = pipeConfig;
  model.baselineQoR = baseQoR;
  model.pipelinedQoR = pipeQoR;
  model.resBase = {baseQoR.dsp, baseQoR.bram, baseQoR.lut, baseQoR.ff};
  model.resPipe = {pipeQoR.dsp, pipeQoR.bram, pipeQoR.lut, pipeQoR.ff};

  // ---- arrays ----
  std::map<const lir::Value *, size_t> arrayIndex;
  for (const vhls::ArrayBase &base : vhls::collectArrayBases(*fn)) {
    arrayIndex[base.value] = model.arrays.size();
    model.arrays.push_back({base.partition, base.extent()});
  }
  auto arrayIdxFor = [&](const lir::Value *base) {
    auto [it, inserted] = arrayIndex.try_emplace(base, model.arrays.size());
    if (inserted)
      model.arrays.push_back(Model::Array()); // unmarked pseudo array
    return it->second;
  };

  // ---- loops, aligned with the report rows ----
  // Both report probes enumerate loops the way the scheduler does: stable
  // sort by descending depth over LoopInfo's deterministic order. Rebuild
  // that order on the probe IR so loops[i] is report row i.
  lir::DominatorTree domTree(*fn);
  lir::LoopInfo loopInfo(*fn, domTree);
  std::vector<lir::Loop *> loops = vhls::reportLoopOrder(loopInfo);
  if (loops.size() != pipeTop->loops.size())
    return fail("probe IR and report disagree on loop count");

  std::map<const lir::Loop *, int> loopIndex;
  for (size_t i = 0; i < loops.size(); ++i)
    loopIndex[loops[i]] = static_cast<int>(i);

  model.loops.resize(loops.size());
  for (size_t i = 0; i < loops.size(); ++i) {
    const vhls::LoopReport &pipeRow = pipeTop->loops[i];
    const vhls::LoopReport &baseRow = baseTop->loops[i];
    if (baseRow.name != pipeRow.name || baseRow.depth != pipeRow.depth)
      return fail("probe reports disagree on loop " + pipeRow.name);
    Model::Loop &L = model.loops[i];
    L.name = pipeRow.name;
    L.depth = pipeRow.depth;
    // The pipelined probe overwrites a flattened outer loop's trip count
    // with the flattened product; the baseline probe keeps the real one.
    L.trip = std::max<int64_t>(1, baseRow.tripCount >= 0 ? baseRow.tripCount
                                                         : 1);
    L.topLevel = loops[i]->parent() == nullptr;
    if (lir::Loop *parent = loops[i]->parent())
      L.parent = loopIndex[parent];
    for (lir::Loop *sub : loops[i]->subLoops())
      L.children.push_back(loopIndex[sub]);
    L.directiveTarget = pipeRow.targetII > 0;
    L.canPipeline = L.directiveTarget && pipeRow.pipelined;
    L.flattenedAtProbe = pipeRow.note == "flattened";
    if (L.canPipeline) {
      L.recMII1 = std::max<int64_t>(1, pipeRow.recMII);
      L.resMII1 = std::max<int64_t>(1, pipeRow.resMII);
      L.depth1 = std::max<int64_t>(1, pipeRow.iterationLatency);
      L.iiSlack = std::max<int64_t>(
          0, pipeRow.achievedII - std::max({int64_t(1), L.recMII1,
                                            L.resMII1}));
    }
    L.seqIter = baseRow.iterationLatency;
    L.seqTotal = baseRow.totalLatency;
    L.seqDirect = L.seqIter;
    if (L.topLevel)
      ++model.topLoopCount;
  }
  for (Model::Loop &L : model.loops)
    for (int child : L.children)
      L.seqDirect -= model.loops[child].seqTotal;

  model.nonLoopLatency = baseQoR.latencyCycles;
  for (const Model::Loop &L : model.loops)
    if (L.topLevel)
      model.nonLoopLatency -= L.seqTotal;

  // ---- latch bodies of the directive targets ----
  for (size_t i = 0; i < loops.size(); ++i) {
    Model::Loop &L = model.loops[i];
    if (!L.directiveTarget)
      continue;
    lir::Loop *loop = loops[i];
    auto canonical = lir::matchCanonicalLoop(loop);
    const lir::Value *iv = canonical ? canonical->indVar : nullptr;
    BasicBlock *latch = loop->latch();
    if (!latch)
      continue;
    for (auto &inst : *latch) {
      vhls::OpInfo info = vhls::characterize(*inst);
      L.classOps[info.fuClass]++;
      if (info.perUnit.dsp != 0 || info.perUnit.lut != 0) {
        auto &slot = L.costedOps[info.fuClass];
        slot.first++;
        slot.second = info.perUnit;
      }
      if (inst->opcode() != Opcode::Load && inst->opcode() != Opcode::Store)
        continue;
      Model::Access access;
      access.arrayIdx = arrayIdxFor(lir::pointerRoot(
          inst->operand(inst->opcode() == Opcode::Store ? 1 : 0)));
      if (inst->opcode() == Opcode::Load)
        L.loadsPerBase[access.arrayIdx]++;
      const Model::Array &array = model.arrays[access.arrayIdx];
      if (const lir::Value *index =
              vhls::dimSubscript(*inst, array.partition.dim)) {
        lir::LinearSubscript sub = lir::linearizeInIV(index, iv ? iv : index);
        if (sub.valid && sub.symbols.empty()) {
          access.linear = true;
          access.ivCoef = sub.ivCoef;
          access.constant = sub.constant;
        }
      }
      L.accesses.push_back(access);
    }
  }

  // Anchor the resource model: subtract the probe's own pipelined FU cost
  // so estimate() can re-add it under any (unroll, II) assignment.
  std::vector<std::pair<int64_t, int64_t>> probeAssignment(
      model.loops.size(), {1, 0});
  for (size_t i = 0; i < model.loops.size(); ++i)
    if (model.loops[i].canPipeline)
      probeAssignment[i] = {1, pipeTop->loops[i].achievedII};
  ResourceUsage probeFu = model.pipelinedFuCost(probeAssignment);
  model.resPipeFloor = model.resPipe;
  model.resPipeFloor.dsp = std::max<int64_t>(0, model.resPipe.dsp - probeFu.dsp);
  model.resPipeFloor.lut = std::max<int64_t>(0, model.resPipe.lut - probeFu.lut);
  model.resPipeFloor.ff = std::max<int64_t>(0, model.resPipe.ff - probeFu.ff);

  return estimation;
}

QoR QoREstimation::estimate(const flow::KernelConfig &config) const {
  const Model &model = *model_;
  if (!config.applyDirectives)
    return model.baselineQoR;

  struct LoopState {
    bool pipelined = false;
    int64_t trip = 1;  // effective iterations (post unroll / flatten)
    int64_t ii = 0;
    int64_t depth = 1;
    int64_t total = 0;
    int64_t factor = 1;
  };
  std::vector<LoopState> states(model.loops.size());

  // Innermost first: model.loops is sorted by descending depth, so every
  // child index is processed before its parent.
  for (size_t i = 0; i < model.loops.size(); ++i) {
    const Model::Loop &L = model.loops[i];
    LoopState &st = states[i];
    int64_t trip = L.trip;
    int64_t factor = 1;
    if (L.directiveTarget && config.unrollFactor > 1)
      factor = lir::clampUnrollFactor(trip, config.unrollFactor);
    st.factor = factor;

    if (L.directiveTarget && config.pipelineII > 0 && L.canPipeline) {
      // Pipelined leaf: the probe's MII components rescaled to the
      // config. Recurrence cycles stretch with the unrolled step; port
      // pressure is recomputed over the replicated accesses under the
      // config's partition factor; the probe's modulo-scheduling slack
      // (achieved minus minimum II) carries over.
      int64_t effTrip = std::max<int64_t>(1, trip / factor);
      int64_t recMII = L.recMII1 <= 1 ? 1 : L.recMII1 * factor;
      int64_t resMII = model.resMIIFor(L, factor, config);
      int64_t ii = std::max({config.pipelineII, recMII, resMII}) + L.iiSlack;
      int64_t depth =
          L.depth1 + (L.recMII1 > 1 ? (factor - 1) * L.recMII1 : 0);
      st.pipelined = true;
      st.trip = effTrip;
      st.ii = ii;
      st.depth = depth;
      st.total = vhls::pipelinedLoopLatency(depth, effTrip, ii);
      continue;
    }

    if (L.flattenedAtProbe && L.children.size() == 1 &&
        states[L.children[0]].pipelined) {
      // Perfect nest over a pipelined inner loop: one pipeline of
      // outerTrip * innerIterations at the inner II.
      const LoopState &child = states[L.children[0]];
      st.pipelined = true;
      st.trip = trip * child.trip;
      st.ii = child.ii;
      st.depth = child.depth;
      st.total = vhls::pipelinedLoopLatency(child.depth, st.trip, child.ii);
      continue;
    }

    // Sequential: the baseline probe's direct-block latency plus the
    // children under this config. Unrolled sequential bodies pay the
    // extra load-issue delay of the replicated accesses on top of the
    // baseline iteration (the replicas' compute chains overlap; the
    // memory ports do not).
    int64_t iter = L.seqDirect;
    for (int child : L.children)
      iter += states[child].total;
    if (factor > 1)
      iter += model.sequentialUnrollGrowth(L, factor);
    st.trip = std::max<int64_t>(1, factor > 1 ? trip / factor : trip);
    st.total = vhls::sequentialLoopLatency(st.trip, iter);
  }

  // Function latency: non-loop blocks plus the top-level nests — summed,
  // or overlapped as tasks under the dataflow directive.
  int64_t latency = model.nonLoopLatency;
  int64_t loopSum = 0, loopMax = 0, taskCount = 0;
  for (size_t i = 0; i < model.loops.size(); ++i) {
    if (!model.loops[i].topLevel)
      continue;
    loopSum += states[i].total;
    loopMax = std::max(loopMax, states[i].total);
    ++taskCount;
  }
  latency += config.dataflow && taskCount > 1 ? loopMax + taskCount : loopSum;

  // Resources: anchored to the probes. A config that pipelines re-adds
  // the pipelined FU demand onto the pipelined probe's floor; a purely
  // sequential config grows the baseline by the replicated body cost
  // (a deliberate monotone overestimate — unrolling never looks free).
  ResourceUsage res;
  bool anyPipelined = false;
  for (const LoopState &st : states)
    anyPipelined |= st.pipelined;
  if (anyPipelined) {
    std::vector<std::pair<int64_t, int64_t>> assignment(model.loops.size(),
                                                        {1, 0});
    for (size_t i = 0; i < model.loops.size(); ++i)
      if (states[i].pipelined && model.loops[i].canPipeline)
        assignment[i] = {states[i].factor, states[i].ii};
    res = model.resPipeFloor;
    res += model.pipelinedFuCost(assignment);
  } else {
    res = model.resBase;
  }
  for (size_t i = 0; i < model.loops.size(); ++i) {
    const Model::Loop &L = model.loops[i];
    if (!L.directiveTarget || states[i].pipelined || states[i].factor <= 1)
      continue;
    // An unrolled sequential body grows resources class by class. The
    // replicas' multi-cycle FP ops start staggered (the load-issue delay
    // spreads them out), so those units are mostly reused — roughly one
    // extra unit from the second doubling on. Zero-latency integer and
    // address ops all want the same early cycles, so their concurrency —
    // and LUT cost — scales with the factor. Strictly increasing either
    // way: deeper unrolling never estimates as resource-free.
    int64_t doublings = 0;
    for (int64_t f = states[i].factor; f > 1; f /= 2)
      ++doublings;
    for (const auto &[cls, ops] : L.costedOps) {
      auto [count, cost] = ops;
      int64_t extraUnits = cost.dsp > 0 ? doublings - 1
                                        : (states[i].factor - 1) * count;
      res += cost * extraUnits;
    }
  }

  QoR qor;
  qor.ok = true;
  qor.cosimOk = true;
  qor.latencyCycles = latency;
  qor.dsp = res.dsp;
  qor.bram = res.bram;
  qor.lut = res.lut;
  qor.ff = res.ff;
  return qor;
}

} // namespace mha::dse
