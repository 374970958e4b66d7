#include "dse/Strategy.h"

#include "support/SplitMix64.h"
#include "support/Telemetry.h"

#include <algorithm>

namespace mha::dse {

namespace {

/// Genetic population size and generations; anneal walk length.
constexpr size_t kPopulationSize = 16, kGenerations = 8, kAnnealSteps = 64;

size_t effectiveBudget(const StrategyOptions &options, size_t upper) {
  if (options.budget == 0)
    return upper;
  return std::min(options.budget, upper);
}

/// Evaluates `configs` in one parallel batch and records them in order.
/// Under estimateOnly the batch routes through the analytical fast path
/// instead of synthesis; either way the points land in the archive and
/// count as evaluator requests.
void visitBatch(Evaluator &evaluator, ParetoArchive &archive,
                const std::vector<flow::KernelConfig> &configs,
                StrategyResult &result, const StrategyOptions &options) {
  std::vector<QoR> qors = options.estimateOnly
                              ? evaluator.estimateAll(configs)
                              : evaluator.evaluateAll(configs);
  for (size_t i = 0; i < configs.size(); ++i) {
    archive.insert(configs[i], qors[i]);
    result.visited.push_back({configs[i], qors[i]});
  }
  result.evaluated += configs.size();
  if (options.estimateOnly)
    result.estimated += configs.size();
}

/// The refine promotion rule: a candidate is pruned only when some
/// estimated-frontier entry (other than itself) dominates it AND beats
/// its latency by more than kRefineSlack. Checking frontier entries alone is
/// sufficient — domination is transitive, so any dominating point is
/// itself dominated by a frontier entry at least as good.
bool slackPruned(const ParetoArchive &estArchive, const std::string &key,
                 const QoR &est) {
  for (const ArchiveEntry &q : estArchive.entries()) {
    if (q.key == key)
      continue;
    if (estArchive.dominates(q.qor, est) &&
        double(q.qor.latencyCycles) <=
            double(est.latencyCycles) * (1.0 - kRefineSlack))
      return true;
  }
  return false;
}

/// Synthesizes the estimated frontier (budget-truncated, archive order —
/// already deterministic by objective vector then key).
void promoteEstimatedFrontier(const ParetoArchive &estArchive,
                              Evaluator &evaluator, ParetoArchive &archive,
                              StrategyResult &result,
                              const StrategyOptions &options) {
  std::vector<flow::KernelConfig> promote;
  for (const ArchiveEntry &entry : estArchive.entries())
    promote.push_back(entry.config);
  promote.resize(effectiveBudget(options, promote.size()));
  visitBatch(evaluator, archive, promote, result, options);
}

class ExhaustiveStrategy : public SearchStrategy {
public:
  const char *name() const override { return "exhaustive"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();
    std::vector<flow::KernelConfig> configs = space.points();
    configs.resize(effectiveBudget(options, configs.size()));
    visitBatch(evaluator, archive, configs, result, options);
    return result;
  }
};

class RandomStrategy : public SearchStrategy {
public:
  const char *name() const override { return "random"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();
    std::vector<flow::KernelConfig> deck = space.points();
    SplitMix64 rng(options.seed);
    // Fisher–Yates; the shuffled prefix is the sample.
    for (size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1], deck[rng.below(i)]);
    deck.resize(effectiveBudget(options, deck.size()));
    visitBatch(evaluator, archive, deck, result, options);
    return result;
  }
};

class GreedyStrategy : public SearchStrategy {
public:
  const char *name() const override { return "greedy"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();
    size_t budget = effectiveBudget(options, SIZE_MAX);

    flow::KernelConfig current = space.baseline();
    visitBatch(evaluator, archive, {current}, result, options);
    QoR currentQoR = result.visited.back().qor;
    if (!currentQoR.ok)
      return result;

    std::vector<std::string> visitedKeys = {configKey(current)};
    while (result.evaluated < budget) {
      std::vector<flow::KernelConfig> frontier;
      for (const flow::KernelConfig &neighbor : space.neighbors(current)) {
        std::string key = configKey(neighbor);
        if (std::find(visitedKeys.begin(), visitedKeys.end(), key) !=
            visitedKeys.end())
          continue;
        frontier.push_back(neighbor);
        visitedKeys.push_back(std::move(key));
      }
      if (frontier.size() > budget - result.evaluated)
        frontier.resize(budget - result.evaluated);
      if (frontier.empty())
        break;
      visitBatch(evaluator, archive, frontier, result, options);

      // The move rule: strictly lower latency; among equals, fewer
      // resources; among full ties, the smaller config key. Deterministic
      // because the frontier order is the space's enumeration order.
      const flow::KernelConfig *best = nullptr;
      QoR bestQoR;
      auto rank = [](const QoR &q) {
        return std::make_tuple(q.latencyCycles, q.dsp, q.bram, q.lut, q.ff);
      };
      size_t base = result.visited.size() - frontier.size();
      for (size_t i = 0; i < frontier.size(); ++i) {
        const VisitedPoint &point = result.visited[base + i];
        if (!point.qor.ok || !point.qor.cosimOk)
          continue;
        if (point.qor.latencyCycles >= currentQoR.latencyCycles)
          continue;
        if (!best || rank(point.qor) < rank(bestQoR) ||
            (rank(point.qor) == rank(bestQoR) &&
             configKey(point.config) < configKey(*best))) {
          best = &point.config;
          bestQoR = point.qor;
        }
      }
      if (!best)
        break; // local optimum
      current = *best;
      currentQoR = bestQoR;
    }
    return result;
  }
};

class RefineStrategy : public SearchStrategy {
public:
  const char *name() const override { return "refine"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();

    // Score the whole space analytically (two probe runs total).
    std::vector<flow::KernelConfig> points = space.points();
    if (options.estimateBudget != 0 &&
        points.size() > options.estimateBudget)
      points.resize(options.estimateBudget);
    std::vector<QoR> estimates = evaluator.estimateAll(points);
    result.estimated += points.size();
    if (points.empty() || !estimates.front().ok) {
      // Probe synthesis failed — no model to guide promotion. Record the
      // baseline so the failure shows up in the visited set and stop.
      visitBatch(evaluator, archive, {space.baseline()}, result, options);
      return result;
    }

    ParetoArchive estArchive(archive.objectives());
    for (size_t i = 0; i < points.size(); ++i)
      estArchive.insert(points[i], estimates[i]);

    // Promote everything the slack rule keeps, best predicted latency
    // first so a tight budget still synthesizes the promising end.
    std::vector<size_t> keep;
    for (size_t i = 0; i < points.size(); ++i)
      if (!slackPruned(estArchive, configKey(points[i]), estimates[i]))
        keep.push_back(i);
    std::stable_sort(keep.begin(), keep.end(), [&](size_t a, size_t b) {
      if (estimates[a].latencyCycles != estimates[b].latencyCycles)
        return estimates[a].latencyCycles < estimates[b].latencyCycles;
      return configKey(points[a]) < configKey(points[b]);
    });
    keep.resize(effectiveBudget(options, keep.size()));
    std::vector<flow::KernelConfig> promote;
    for (size_t i : keep)
      promote.push_back(points[i]);
    visitBatch(evaluator, archive, promote, result, options);
    return result;
  }
};

class GeneticStrategy : public SearchStrategy {
public:
  const char *name() const override { return "genetic"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();
    const size_t popSize = std::max<size_t>(
        2, std::min(kPopulationSize, space.size()));
    SplitMix64 rng(options.seed);

    // Initial population: a seeded sample without replacement.
    std::vector<flow::KernelConfig> deck = space.points();
    for (size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1], deck[rng.below(i)]);
    deck.resize(std::min(popSize, deck.size()));
    std::vector<flow::KernelConfig> population = std::move(deck);

    ParetoArchive estArchive(archive.objectives());
    for (size_t gen = 0; gen < kGenerations; ++gen) {
      if (options.estimateBudget != 0) {
        size_t remaining =
            options.estimateBudget -
            std::min(options.estimateBudget, result.estimated);
        if (remaining == 0)
          break;
        if (population.size() > remaining)
          population.resize(remaining);
      }
      std::vector<QoR> estimates = evaluator.estimateAll(population);
      result.estimated += population.size();
      if (estimates.empty() || !estimates.front().ok) {
        visitBatch(evaluator, archive, {space.baseline()}, result, options);
        return result;
      }
      for (size_t i = 0; i < population.size(); ++i)
        estArchive.insert(population[i], estimates[i]);

      // Binary tournament on estimated QoR: domination wins, then lower
      // latency, then the smaller config key.
      auto tournament = [&]() -> const flow::KernelConfig & {
        size_t a = rng.below(population.size());
        size_t b = rng.below(population.size());
        if (estArchive.dominates(estimates[a], estimates[b]))
          return population[a];
        if (estArchive.dominates(estimates[b], estimates[a]))
          return population[b];
        if (estimates[a].latencyCycles != estimates[b].latencyCycles)
          return estimates[a].latencyCycles < estimates[b].latencyCycles
                     ? population[a]
                     : population[b];
        return configKey(population[a]) <= configKey(population[b])
                   ? population[a]
                   : population[b];
      };

      // Knob-wise crossover plus occasional single-knob mutation; the
      // space canonicalizes children onto valid designs. Duplicates
      // within a generation are retried a bounded number of times.
      std::vector<flow::KernelConfig> next;
      std::vector<std::string> nextKeys;
      const DesignSpaceOptions &knobs = space.options();
      for (size_t attempts = popSize * 16;
           next.size() < popSize && attempts > 0; --attempts) {
        const flow::KernelConfig &ma = tournament();
        const flow::KernelConfig &pa = tournament();
        flow::KernelConfig child;
        child.pipelineII = (rng.next() & 1) ? ma.pipelineII : pa.pipelineII;
        child.unrollFactor =
            (rng.next() & 1) ? ma.unrollFactor : pa.unrollFactor;
        child.partitionFactor =
            (rng.next() & 1) ? ma.partitionFactor : pa.partitionFactor;
        child.dataflow = (rng.next() & 1) ? ma.dataflow : pa.dataflow;
        child.applyDirectives = true;
        if (rng.below(4) == 0) {
          switch (rng.below(4)) {
          case 0:
            child.pipelineII =
                knobs.pipelineIIs[rng.below(knobs.pipelineIIs.size())];
            break;
          case 1:
            child.unrollFactor =
                knobs.unrollFactors[rng.below(knobs.unrollFactors.size())];
            break;
          case 2:
            child.partitionFactor = knobs.partitionFactors[rng.below(
                knobs.partitionFactors.size())];
            break;
          default:
            child.dataflow = rng.next() & 1;
            break;
          }
        }
        child = space.canonicalize(child);
        std::string key = configKey(child);
        if (std::find(nextKeys.begin(), nextKeys.end(), key) !=
            nextKeys.end())
          continue;
        nextKeys.push_back(std::move(key));
        next.push_back(child);
      }
      if (next.empty())
        break;
      population = std::move(next);
    }

    promoteEstimatedFrontier(estArchive, evaluator, archive, result,
                             options);
    return result;
  }
};

class AnnealStrategy : public SearchStrategy {
public:
  const char *name() const override { return "anneal"; }

  StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                     ParetoArchive &archive,
                     const StrategyOptions &options) override {
    StrategyResult result;
    result.strategy = name();
    SplitMix64 rng(options.seed);

    flow::KernelConfig current = space.baseline();
    QoR currentEst = evaluator.estimate(current);
    ++result.estimated;
    if (!currentEst.ok) {
      visitBatch(evaluator, archive, {current}, result, options);
      return result;
    }
    ParetoArchive estArchive(archive.objectives());
    estArchive.insert(current, currentEst);

    // Threshold accepting: accept any move whose estimated latency
    // regression is within a linearly cooling integer threshold. Pure
    // integer arithmetic — no exp(), no floating-point acceptance — so
    // a seed replays the identical walk everywhere.
    const int64_t t0 =
        std::max<int64_t>(1, currentEst.latencyCycles / 4);
    for (size_t step = 0; step < kAnnealSteps; ++step) {
      if (options.estimateBudget != 0 &&
          result.estimated >= options.estimateBudget)
        break;
      std::vector<flow::KernelConfig> neighbors = space.neighbors(current);
      if (neighbors.empty())
        break;
      const flow::KernelConfig &candidate =
          neighbors[rng.below(neighbors.size())];
      QoR candidateEst = evaluator.estimate(candidate);
      ++result.estimated;
      estArchive.insert(candidate, candidateEst);
      int64_t threshold =
          t0 * int64_t(kAnnealSteps - step) / int64_t(kAnnealSteps);
      if (candidateEst.latencyCycles - currentEst.latencyCycles <=
          threshold) {
        current = candidate;
        currentEst = candidateEst;
      }
    }

    promoteEstimatedFrontier(estArchive, evaluator, archive, result,
                             options);
    return result;
  }
};

} // namespace

std::unique_ptr<SearchStrategy> createStrategy(std::string_view name) {
  if (name == "exhaustive")
    return std::make_unique<ExhaustiveStrategy>();
  if (name == "random")
    return std::make_unique<RandomStrategy>();
  if (name == "greedy")
    return std::make_unique<GreedyStrategy>();
  if (name == "refine")
    return std::make_unique<RefineStrategy>();
  if (name == "genetic")
    return std::make_unique<GeneticStrategy>();
  if (name == "anneal")
    return std::make_unique<AnnealStrategy>();
  return nullptr;
}

const std::vector<std::string> &strategyNames() {
  static const std::vector<std::string> names = {
      "exhaustive", "random", "greedy", "refine", "genetic", "anneal"};
  return names;
}

} // namespace mha::dse
