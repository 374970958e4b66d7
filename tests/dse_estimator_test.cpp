// Accuracy harness for the analytical QoR estimator: every kernel from
// the table1/table2 experiments, swept over a small directive grid, with
// every point both estimated and synthesized. Three properties hold the
// estimator to its contract:
//
//  * predicted latency stays within the stated error bound (10%; the
//    measured worst case across all kernels on this grid is 4.8%);
//  * the estimator preserves synthesis's ranking of clearly-separated
//    dominated/dominating pairs;
//  * the refine slack rule (15%) promotes every true-frontier point —
//    the containment guarantee the refine strategy is built on.
//
// The per-kernel sweep (synthesis included) is computed once and shared
// across the tests.
#include "dse/Dse.h"
#include "dse/QoREstimation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

using namespace mha;
using namespace mha::dse;

namespace {

/// The calibration grid: II in {0,1,2}, unroll in {1,2,4}, partition in
/// {1,2,4} — the grid the estimator's error bound was measured on.
DesignSpaceOptions calibrationGrid() {
  DesignSpaceOptions options;
  options.pipelineIIs = {0, 1, 2};
  options.unrollFactors = {1, 2, 4};
  options.partitionFactors = {1, 2, 4};
  return options;
}

struct Sweep {
  std::vector<flow::KernelConfig> points;
  std::vector<QoR> estimated;
  std::vector<QoR> synthesized;
};

const Sweep &sweep(const std::string &kernelName) {
  static std::map<std::string, Sweep> cache;
  auto it = cache.find(kernelName);
  if (it != cache.end())
    return it->second;
  const flow::KernelSpec *spec = flow::findKernel(kernelName);
  EXPECT_NE(spec, nullptr) << kernelName;
  DesignSpace space(*spec, calibrationGrid());
  Evaluator evaluator(*spec);
  Sweep result;
  result.points = space.points();
  result.estimated = evaluator.estimateAll(result.points);
  result.synthesized = evaluator.evaluateAll(result.points);
  return cache.emplace(kernelName, std::move(result)).first->second;
}

double latencyErrorPct(const QoR &estimated, const QoR &synthesized) {
  return 100.0 *
         std::abs(double(estimated.latencyCycles) -
                  double(synthesized.latencyCycles)) /
         double(synthesized.latencyCycles);
}

std::vector<std::string> allKernelNames() {
  std::vector<std::string> names;
  for (const flow::KernelSpec &spec : flow::allKernels())
    names.push_back(spec.name);
  return names;
}

} // namespace

TEST(QoREstimator, LatencyWithinStatedBound) {
  constexpr double kBoundPct = 10.0;
  for (const std::string &name : allKernelNames()) {
    const Sweep &s = sweep(name);
    ASSERT_FALSE(s.points.empty()) << name;
    for (size_t i = 0; i < s.points.size(); ++i) {
      ASSERT_TRUE(s.synthesized[i].ok)
          << name << " " << configKey(s.points[i]);
      ASSERT_TRUE(s.estimated[i].ok) << name << " " << configKey(s.points[i]);
      EXPECT_LE(latencyErrorPct(s.estimated[i], s.synthesized[i]), kBoundPct)
          << name << " " << configKey(s.points[i]) << ": estimated "
          << s.estimated[i].latencyCycles << " vs synthesized "
          << s.synthesized[i].latencyCycles;
    }
  }
}

TEST(QoREstimator, BaselineAndProbePointsAreExact) {
  // The estimator anchors on two real synthesis runs; re-estimating those
  // exact configs must reproduce them bit-for-bit.
  for (const std::string &name : allKernelNames()) {
    const flow::KernelSpec *spec = flow::findKernel(name);
    std::string error;
    std::unique_ptr<QoREstimation> model =
        QoREstimation::build(*spec, {}, &error);
    ASSERT_NE(model, nullptr) << name << ": " << error;
    for (const auto &[config, expected] :
         {std::pair(model->baselineProbeConfig(), model->baselineProbeQoR()),
          std::pair(model->pipelinedProbeConfig(),
                    model->pipelinedProbeQoR())}) {
      QoR estimated = model->estimate(config);
      EXPECT_EQ(estimated.latencyCycles, expected.latencyCycles) << name;
      EXPECT_EQ(estimated.dsp, expected.dsp) << name;
      EXPECT_EQ(estimated.bram, expected.bram) << name;
      EXPECT_EQ(estimated.lut, expected.lut) << name;
      EXPECT_EQ(estimated.ff, expected.ff) << name;
    }
  }
}

TEST(QoREstimator, PreservesDominanceOrderOfSeparatedPairs) {
  // When synthesis says one design dominates another with a clear latency
  // gap (>= 25%, well beyond the error bound), the estimator must agree
  // on the latency ordering.
  ParetoArchive archive; // for the dominance predicate
  for (const std::string &name : allKernelNames()) {
    const Sweep &s = sweep(name);
    for (size_t i = 0; i < s.points.size(); ++i) {
      for (size_t j = 0; j < s.points.size(); ++j) {
        if (i == j || !s.synthesized[i].ok || !s.synthesized[j].ok)
          continue;
        if (!archive.dominates(s.synthesized[i], s.synthesized[j]))
          continue;
        if (double(s.synthesized[i].latencyCycles) >
            0.75 * double(s.synthesized[j].latencyCycles))
          continue;
        EXPECT_LT(s.estimated[i].latencyCycles, s.estimated[j].latencyCycles)
            << name << ": " << configKey(s.points[i]) << " dominates "
            << configKey(s.points[j]) << " in synthesis but not in estimate";
      }
    }
  }
}

TEST(QoREstimator, SlackRulePromotesEveryTrueFrontierPoint) {
  // The refine strategy only synthesizes points the 15% slack rule keeps;
  // this is the containment guarantee: no point of the synthesized
  // frontier may be pruned based on estimates.
  const double slack = kRefineSlack;
  for (const std::string &name : allKernelNames()) {
    const Sweep &s = sweep(name);
    ParetoArchive realArchive, estArchive;
    for (size_t i = 0; i < s.points.size(); ++i) {
      realArchive.insert(s.points[i], s.synthesized[i]);
      estArchive.insert(s.points[i], s.estimated[i]);
    }
    for (const ArchiveEntry &entry : realArchive.entries()) {
      size_t idx = 0;
      while (idx < s.points.size() && configKey(s.points[idx]) != entry.key)
        ++idx;
      ASSERT_LT(idx, s.points.size()) << name;
      bool promoted = true;
      for (const ArchiveEntry &q : estArchive.entries()) {
        if (q.key == entry.key)
          continue;
        if (estArchive.dominates(q.qor, s.estimated[idx]) &&
            double(q.qor.latencyCycles) <=
                double(s.estimated[idx].latencyCycles) * (1.0 - slack))
          promoted = false;
      }
      EXPECT_TRUE(promoted)
          << name << ": true-frontier point " << entry.key
          << " would be pruned by the slack rule";
    }
  }
}

TEST(QoREstimator, EstimateIsDeterministic) {
  const flow::KernelSpec *spec = flow::findKernel("gemm");
  ASSERT_NE(spec, nullptr);
  std::unique_ptr<QoREstimation> model = QoREstimation::build(*spec, {});
  ASSERT_NE(model, nullptr);
  flow::KernelConfig config;
  config.pipelineII = 2;
  config.unrollFactor = 2;
  config.partitionFactor = 4;
  QoR first = model->estimate(config);
  QoR second = model->estimate(config);
  EXPECT_EQ(first.latencyCycles, second.latencyCycles);
  EXPECT_EQ(first.dsp, second.dsp);
  EXPECT_EQ(first.lut, second.lut);
}
