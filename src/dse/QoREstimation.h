// QoREstimation.h - analytical QoR prediction for design points.
//
// The ScaleHLS lesson: design spaces become tractable when the explorer
// can *score* a point without synthesizing it. This class predicts a
// config's latency and resources directly from post-adaptor IR structure —
// no scheduling, no emission — using the same algebra the virtual HLS
// scheduler enforces (vhls/Estimate.h):
//
//   latency   = loop trip counts x achieved II, where the II is
//               max(target II, recurrence MII, port-limited MII) with the
//               recurrence scaled by the unroll factor and the port
//               pressure recomputed from the access residues under the
//               config's cyclic partition factor;
//   resources = FU allocation (ceil(ops/II) for pipelined bodies) +
//               TechLibrary per-unit costs, anchored to measured probes.
//
// Construction runs exactly two *probe* synthesis runs through the real
// flow — the unoptimized baseline and one pipelined point — and extracts a
// structural model (loop tree, trip counts, memory-access subscripts,
// per-class op counts) from the probe's kept-alive IR. It walks that IR
// with the scheduler's own functions (vhls/Estimate.h): the arrays and
// their partition directives, the partitioned-dimension subscripts and
// the report loop order; estimates classify banks and bound ResMII with
// the scheduler's bankClassOf and ResMIIAccumulator. Every subsequent
// estimate() is pure arithmetic over that model: microseconds instead of a
// full synthesis run, and safe to call concurrently from the evaluator's
// thread pool. Probes are real synthesis results and are exposed so the
// evaluator can seed its QoR cache with them.
#pragma once

#include "dse/Evaluator.h"

#include <memory>
#include <string>

namespace mha::dse {

class QoREstimation {
public:
  ~QoREstimation();

  /// Builds the model for `spec` by running the two probe synthesis runs
  /// with `flowOptions`. Returns nullptr (and sets `error`) when either
  /// probe fails to synthesize.
  static std::unique_ptr<QoREstimation>
  build(const flow::KernelSpec &spec, const flow::FlowOptions &flowOptions,
        std::string *error = nullptr);

  const flow::KernelSpec &spec() const { return *spec_; }

  /// Predicts the QoR of `config` analytically. Thread-safe and cheap
  /// (pure arithmetic over the extracted model). The result always has
  /// ok=true — the probes proved the kernel synthesizes.
  QoR estimate(const flow::KernelConfig &config) const;

  /// Synthesis runs spent building the model.
  static constexpr int64_t kProbeRuns = 2;

  /// The two measured probe points (real synthesis QoRs, cache-seedable).
  const flow::KernelConfig &baselineProbeConfig() const;
  const QoR &baselineProbeQoR() const;
  const flow::KernelConfig &pipelinedProbeConfig() const;
  const QoR &pipelinedProbeQoR() const;

private:
  QoREstimation();

  struct Model;
  const flow::KernelSpec *spec_ = nullptr;
  std::unique_ptr<Model> model_;
};

} // namespace mha::dse
