// DSE throughput — analytical estimation vs synthesis as the search's
// scoring engine, on the fig1–fig3 kernels (gemm, jacobi2d, fir, conv2d).
//
// Three measurements per kernel, each on a fresh evaluator so the QoR
// cache cannot leak work between them:
//
//  * scoring rate — points scored per second through full synthesis
//    (exhaustive sweep) vs through the estimator (two probe runs, then
//    arithmetic). The probe cost is reported separately so the rate
//    reflects the steady state a search actually runs at. One estimate
//    batch over the whole space takes well under a millisecond, so a
//    single timing follows host load; the estimator rate is the median
//    over kEstimateBatches repeated batches.
//  * time-to-frontier — wall time for the exhaustive sweep vs the
//    estimator-guided refine strategy to produce their Pareto archives.
//  * frontier containment — every exhaustive-frontier point must appear
//    in the refine frontier (the slack promotion rule's guarantee).
//
// The bench fails (exit 1) when the estimator scores fewer than 50x the
// points per second of synthesis or when containment is violated — the
// claims EXPERIMENTS.md makes are checked, not assumed.
#include "BenchCommon.h"

#include "dse/Dse.h"

#include <algorithm>
#include <chrono>

using namespace mha;
using namespace mha::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Estimate batches timed per kernel (odd, so the median is one batch).
constexpr int kEstimateBatches = 31;

} // namespace

int main(int argc, char **argv) {
  JsonReport report("dse_throughput", argc, argv);
  std::printf("DSE throughput: estimator vs synthesis scoring\n");
  std::printf("%-10s %6s %12s %12s %9s %12s %12s %10s\n", "kernel", "pts",
              "synth pts/s", "est pts/s", "speedup", "exhaust(s)",
              "refine(s)", "contained");
  printRule(90);

  int status = 0;
  for (const char *name : {"gemm", "jacobi2d", "fir", "conv2d"}) {
    const flow::KernelSpec *spec = flow::findKernel(name);
    dse::DesignSpace space(*spec);
    const size_t points = space.size();

    // Exhaustive synthesis: scoring rate and time-to-frontier in one run.
    auto start = std::chrono::steady_clock::now();
    dse::Evaluator synthEval(*spec);
    std::optional<dse::DseResult> exhaustive =
        dse::runDse(space, synthEval, "exhaustive", {});
    double exhaustiveSeconds = secondsSince(start);
    if (!exhaustive) {
      std::fprintf(stderr, "BENCH FAILURE: exhaustive run failed\n");
      return 1;
    }

    // Estimator scoring rate, probe build timed separately.
    dse::Evaluator estEval(*spec);
    start = std::chrono::steady_clock::now();
    if (!estEval.estimator()) {
      std::fprintf(stderr, "BENCH FAILURE (%s): estimator probes failed\n",
                   name);
      return 1;
    }
    double probeSeconds = secondsSince(start);
    std::vector<double> batchSeconds;
    for (int batch = 0; batch < kEstimateBatches; ++batch) {
      start = std::chrono::steady_clock::now();
      std::vector<dse::QoR> estimates = estEval.estimateAll(space.points());
      batchSeconds.push_back(secondsSince(start));
      for (const dse::QoR &qor : estimates)
        if (!qor.ok) {
          std::fprintf(stderr, "BENCH FAILURE (%s): estimate failed: %s\n",
                       name, qor.error.c_str());
          return 1;
        }
    }
    std::nth_element(batchSeconds.begin(),
                     batchSeconds.begin() + kEstimateBatches / 2,
                     batchSeconds.end());
    double estimateSeconds = batchSeconds[kEstimateBatches / 2];

    // Refine time-to-frontier on its own evaluator (probes included).
    start = std::chrono::steady_clock::now();
    dse::Evaluator refineEval(*spec);
    std::optional<dse::DseResult> refine =
        dse::runDse(space, refineEval, "refine", {});
    double refineSeconds = secondsSince(start);
    if (!refine) {
      std::fprintf(stderr, "BENCH FAILURE: refine run failed\n");
      return 1;
    }

    // Containment: the refine frontier must hold every exhaustive-frontier
    // point (same synthesized QoR space, so keys are comparable).
    bool contained = true;
    for (const dse::ArchiveEntry &entry : exhaustive->pareto) {
      bool found = false;
      for (const dse::ArchiveEntry &candidate : refine->pareto)
        if (candidate.key == entry.key)
          found = true;
      if (!found) {
        contained = false;
        std::fprintf(stderr,
                     "BENCH FAILURE (%s): exhaustive-frontier point %s "
                     "missing from refine frontier\n",
                     name, entry.key.c_str());
      }
    }

    double synthRate = double(points) / exhaustiveSeconds;
    double estRate = double(points) / std::max(estimateSeconds, 1e-9);
    double speedup = estRate / synthRate;
    std::printf("%-10s %6zu %12.1f %12.0f %8.0fx %12.3f %12.3f %10s\n",
                name, points, synthRate, estRate, speedup,
                exhaustiveSeconds, refineSeconds, contained ? "yes" : "NO");

    if (speedup < 50.0) {
      std::fprintf(stderr,
                   "BENCH FAILURE (%s): estimator scoring speedup %.1fx "
                   "below the 50x floor\n",
                   name, speedup);
      status = 1;
    }
    if (!contained)
      status = 1;

    report.beginRow();
    report.field("kernel", name);
    report.field("points", static_cast<int64_t>(points));
    report.field("synth_points_per_sec", synthRate);
    report.field("est_points_per_sec", estRate);
    report.field("estimate_batches", static_cast<int64_t>(kEstimateBatches));
    report.field("speedup", speedup);
    report.field("probe_seconds", probeSeconds);
    report.field("exhaustive_seconds", exhaustiveSeconds);
    report.field("refine_seconds", refineSeconds);
    report.field("refine_evaluated", static_cast<int64_t>(refine->evaluated));
    report.field("refine_estimated", static_cast<int64_t>(refine->estimated));
    report.field("frontier_contained", contained);
    report.field("estimator_latency_max_abs_pct",
                 refine->estimator.latencyMaxAbsPct);
  }
  return report.finish(status);
}
