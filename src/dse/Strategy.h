// Strategy.h - pluggable search strategies over a DesignSpace.
//
// A strategy decides *which* points to evaluate and in what order; the
// Evaluator decides *how* (parallel flow runs behind the QoR cache) and
// the ParetoArchive accumulates whatever survives domination. Six
// strategies ship:
//
//  * exhaustive — every enumerated point (truncated to the budget);
//  * random    — a seeded Fisher–Yates sample without replacement. The
//                PRNG (splitmix64) is our own, so a given seed visits the
//                same points on every platform and standard library;
//  * greedy    — hill-climbing from the unoptimized baseline: each step
//                evaluates the full one-knob neighborhood in parallel and
//                moves to the best strictly-latency-improving neighbor
//                (resources, then config key, break ties), stopping at a
//                local optimum or when the budget runs out.
//
// Three more are estimator-guided: they score points analytically through
// Evaluator::estimateAll (two probe synthesis runs, then arithmetic) and
// spend the synthesis budget only on predicted winners:
//
//  * refine    — estimates the whole space, then synthesizes every point
//                the slack rule keeps: a point is skipped only when some
//                estimated-frontier point dominates it *and* improves
//                latency by more than `kRefineSlack`, so estimator error
//                up to the slack cannot drop a true-frontier point;
//  * genetic   — seeded tournament selection + knob crossover/mutation,
//                generations scored entirely on estimates; the final
//                estimated frontier is synthesized;
//  * anneal    — threshold-accepting walk over one-knob neighbors (accept
//                when the estimated latency regression is within a
//                linearly cooling integer threshold — deterministic, no
//                transcendentals); the visited estimated frontier is
//                synthesized.
//
// All synthesized points are offered to the archive, so a strategy's
// archive is the frontier of its visited set. With estimateOnly set,
// visits archive estimates instead — no synthesis beyond the probes.
#pragma once

#include "dse/DesignSpace.h"
#include "dse/Evaluator.h"
#include "dse/Pareto.h"

#include <memory>

namespace mha::dse {

/// Latency slack for refine's promotion rule: an estimated-frontier point
/// prunes a candidate only when it dominates it and improves latency by
/// more than this fraction. Calibrated to ~3x the measured worst-case
/// estimator latency error.
inline constexpr double kRefineSlack = 0.15;

struct StrategyOptions {
  /// Maximum number of evaluator requests (0 = unlimited). Cached points
  /// count — the budget bounds the search effort deterministically, not
  /// wall time.
  size_t budget = 0;
  /// Seed for randomized strategies; the same seed replays the same walk.
  uint64_t seed = 0;
  /// Cap on analytical estimates spent by estimator-guided strategies
  /// (0 = unlimited). Estimates are not evaluator requests and never
  /// count against `budget`.
  size_t estimateBudget = 0;
  /// Archive analytical estimates instead of synthesizing: every visit
  /// goes through Evaluator::estimateAll, so the only synthesis runs are
  /// the estimator's probes.
  bool estimateOnly = false;
  /// Re-seed the Pareto archive from the evaluator's completed cache
  /// entries before searching (runDse honours this; see Dse.h).
  bool warmStart = false;
};

struct VisitedPoint {
  flow::KernelConfig config;
  QoR qor;
};

struct StrategyResult {
  std::string strategy;
  size_t evaluated = 0; // evaluator requests issued (estimates excluded)
  size_t estimated = 0; // analytical estimates issued
  /// Every evaluated point in the strategy's deterministic visit order.
  std::vector<VisitedPoint> visited;
};

class SearchStrategy {
public:
  virtual ~SearchStrategy() = default;
  virtual const char *name() const = 0;
  virtual StrategyResult run(const DesignSpace &space, Evaluator &evaluator,
                             ParetoArchive &archive,
                             const StrategyOptions &options) = 0;
};

/// Factory over the registered strategy names ("exhaustive", "random",
/// "greedy", "refine", "genetic", "anneal"); nullptr for unknown names.
std::unique_ptr<SearchStrategy> createStrategy(std::string_view name);

/// Registered names, in documentation order.
const std::vector<std::string> &strategyNames();

} // namespace mha::dse
