// dse-search: seeded refine and genetic searches over conv2d, gemm,
// jacobi2d and fir. Every search gets a fresh dse::Evaluator (at most four
// threads, StageCache off), so the estimator probes, the strategy, the
// analytical estimates and the promoted syntheses all run inside the op.
#include "Workloads.h"

#include "dse/Dse.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <thread>

namespace perfbench {

using namespace mha;

namespace {

const char *const kKernels[] = {"conv2d", "gemm", "jacobi2d", "fir"};
const char *const kStrategies[] = {"refine", "genetic"};

struct Combo {
  const flow::KernelSpec *spec;
  const dse::DesignSpace *space;
  const char *strategy;
};

/// A synthesized design point and the QoR the searches reported for it.
struct Visit {
  DesignPoint point;
  dse::QoR qor;
  int64_t searches = 0;
  bool failed = false;
};

bool sameQor(const dse::QoR &a, const dse::QoR &b) {
  return a.ok == b.ok && a.latencyCycles == b.latencyCycles &&
         a.dsp == b.dsp && a.bram == b.bram && a.lut == b.lut && a.ff == b.ff;
}

dse::QoR qorFromFlow(const flow::FlowResult &result) {
  dse::QoR qor;
  const vhls::FunctionReport *top = result.synth.top();
  if (!result.ok || !top)
    return qor;
  qor.ok = true;
  qor.latencyCycles = top->latencyCycles;
  qor.dsp = top->resources.dsp;
  qor.bram = top->resources.bram;
  qor.lut = top->resources.lut;
  qor.ff = top->resources.ff;
  return qor;
}

/// Totals over the traced searches.
struct SearchCounts {
  double searches = 0, synthRuns = 0, probeRuns = 0, estimates = 0;
  double cacheHits = 0, frontier = 0;
  double calibrationPoints = 0;
};

} // namespace

int runDseSearch(Context &ctx) {
  const Options &opt = ctx.options();
  std::vector<std::unique_ptr<dse::DesignSpace>> spaces;
  std::vector<Combo> combos;
  for (const char *name : kKernels) {
    const flow::KernelSpec *spec = flow::findKernel(name);
    spaces.push_back(std::make_unique<dse::DesignSpace>(*spec));
    for (const char *strategy : kStrategies)
      combos.push_back({spec, spaces.back().get(), strategy});
  }
  dse::EvaluatorOptions eo;
  eo.numThreads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  // Warm-up: one untimed search per (kernel, strategy).
  for (const Combo &combo : combos) {
    dse::Evaluator evaluator(*combo.spec, eo);
    if (!dse::runDse(*combo.space, evaluator, combo.strategy, {}))
      ctx.fail(0, std::string("warm-up: unknown strategy ") + combo.strategy);
  }
  if (!ctx.ready())
    return 0;

  std::map<std::string, Visit> visits;
  std::vector<double> opMs, tracedMs, opPoints;
  std::vector<TimedOp> timed;
  double bookkeepingMs = 0;
  SearchCounts counts;
  int64_t op = 0;
  auto record = [&](const Combo &combo, const dse::DseResult &result) {
    for (const dse::VisitedPoint &v : result.visited) {
      if (!v.qor.ok)
        continue;
      std::string key = combo.spec->name + "|" + dse::configKey(v.config);
      auto [it, inserted] = visits.try_emplace(key);
      Visit &visit = it->second;
      visit.searches++;
      if (inserted) {
        visit.point.spec = combo.spec;
        visit.point.config = v.config;
        visit.qor = v.qor;
      } else if (!sameQor(visit.qor, v.qor)) {
        visit.failed = true;
        ctx.fail(1, key + ": QoR differs between searches");
      }
    }
  };

  Clock::time_point start = Clock::now();
  for (uint64_t round = 0;; ++round) {
    std::vector<Combo> order = combos;
    Rng rng(deriveSeed(opt.seed, 3000 + round));
    shuffle(order, rng);
    for (const Combo &combo : order) {
      dse::StrategyOptions so;
      so.seed = deriveSeed(opt.seed, 4000 + static_cast<uint64_t>(op));
      std::optional<dse::DseResult> result;
      Clock::time_point t0 = Clock::now();
      {
        dse::Evaluator evaluator(*combo.spec, eo);
        result = dse::runDse(*combo.space, evaluator, combo.strategy, so);
        opPoints.push_back(double(evaluator.estimates() + evaluator.synthRuns()));
      }
      Clock::time_point t1 = Clock::now();
      opMs.push_back(msBetween(t0, t1));
      timed.push_back({msBetween(start, t1) - bookkeepingMs, opMs.back(),
                       combo.spec->name + "/" + combo.strategy});
      ctx.attempted(1);
      if (!result) {
        ctx.fail(1, std::string("unknown strategy ") + combo.strategy);
        continue;
      }
      record(combo, *result);

      if (opt.trace) {
        // The same search again, one span per layer call.
        dse::Evaluator evaluator(*combo.spec, eo);
        std::optional<dse::DseResult> traced;
        ctx.recorder().labelOp(op, combo.spec->name + "/" + combo.strategy);
        {
          Recorder::Span search(ctx.recorder(), "dse.search", op);
          {
            Recorder::Span probe(ctx.recorder(), "dse.probe");
            evaluator.estimator();
          }
          {
            Recorder::Span strategy(ctx.recorder(), "dse.strategy");
            traced = dse::runDse(*combo.space, evaluator, combo.strategy, so);
          }
          tracedMs.push_back(search.finish());
        }
        counts.searches++;
        counts.synthRuns += double(evaluator.synthRuns());
        counts.probeRuns += double(evaluator.probeRuns());
        counts.estimates += double(evaluator.estimates());
        counts.cacheHits += double(evaluator.cacheHits());
        if (traced) {
          counts.frontier += double(traced->pareto.size());
          record(combo, *traced);
        }
        // Calibration outside the search span: the estimator's cost per
        // point over the whole space.
        Recorder::Span calibrate(ctx.recorder(), "dse.estimate_all", op);
        evaluator.estimateAll(combo.space->points());
        counts.calibrationPoints += double(combo.space->size());
      }
      ++op;
      bookkeepingMs += msBetween(t1, Clock::now());
    }
    double elapsedMs = msBetween(start, Clock::now());
    if ((opt.trace ? elapsedMs : elapsedMs - bookkeepingMs) >=
        opt.seconds * 1000.0)
      break;
  }
  double peakRss = Context::peakRssMb();

  // Correctness gate: every synthesized point through the real flow,
  // co-simulated, with the QoR the searches reported.
  std::vector<Visit *> toCheck;
  for (auto &[key, visit] : visits)
    if (!visit.failed)
      toCheck.push_back(&visit);
  parallelFor(toCheck.size(), 4, [&](size_t i) {
    Visit &visit = *toCheck[i];
    flow::FlowResult result;
    std::string why = checkPoint(ctx, visit.point, "", result);
    if (why.empty() && !sameQor(qorFromFlow(result), visit.qor))
      why = visit.point.key() + ": search QoR differs from the flow's";
    if (!why.empty()) {
      visit.failed = true;
      ctx.fail(visit.searches, why);
    }
  });
  ctx.note(strfmt("%lld searches, %zu distinct synthesized design points",
                  static_cast<long long>(op), visits.size()));

  if (opt.trace) {
    ctx.fillLayerMetrics();
    std::map<std::string, Recorder::LayerTime> layers =
        ctx.recorder().layerTimes();
    MetricTable &m = ctx.metrics();
    const Recorder::LayerTime &probe = layers["dse.probe"];
    const Recorder::LayerTime &strategy = layers["dse.strategy"];
    const Recorder::LayerTime &estimateAll = layers["dse.estimate_all"];
    double estimateUs =
        ratio(1000.0 * estimateAll.totalMs, counts.calibrationPoints);
    double promoted = counts.synthRuns - counts.probeRuns;
    double inSearchEstimateMs = counts.estimates * estimateUs / 1000.0;
    m.set("dse.probe_ms", ratio(probe.totalMs, double(probe.calls)), "ms");
    m.set("dse.estimate_us_per_point", estimateUs, "us");
    m.set("dse.evaluate_ms_per_point",
          ratio(std::max(0.0, strategy.totalMs - inSearchEstimateMs), promoted),
          "ms");
    m.set("dse.synth_runs", ratio(counts.synthRuns, counts.searches), "count");
    m.set("dse.estimates", ratio(counts.estimates, counts.searches), "count");
    m.set("dse.cache_hits", ratio(counts.cacheHits, counts.searches), "count");
    m.set("dse.promotion_ratio", ratio(promoted, counts.estimates), "ratio");
    m.set("dse.frontier_yield", ratio(counts.frontier, promoted), "ratio");
    ctx.setTraceOverhead(opMs, tracedMs);
    return 0;
  }
  std::vector<double> latency, lut;
  for (const auto &[key, visit] : visits)
    if (!visit.failed) {
      latency.push_back(double(visit.qor.latencyCycles));
      lut.push_back(double(visit.qor.lut));
    }
  QuietWindows quiet = quietWindows(timed);
  std::vector<double> quietMs;
  std::map<std::string, std::vector<double>> perCombo;
  double points = 0;
  for (size_t i = 0; i < timed.size(); ++i)
    if (quiet.kept[i]) {
      quietMs.push_back(timed[i].ms);
      perCombo[timed[i].group].push_back(timed[i].ms);
      points += opPoints[i];
    }
  std::vector<std::vector<double>> groups;
  for (auto &[combo, ms] : perCombo)
    groups.push_back(std::move(ms));
  // ~140 searches in the quiet windows of a 25-s run: p90 leaves ~14
  // samples beyond it.
  ctx.setOpMetrics(quietMs, geomeanOfMedians(groups), tail(quietMs, 90),
                   quiet, points, latency, lut, peakRss);
  ctx.note(strfmt("dse_points_per_s %.2f points/s (estimated plus "
                  "synthesized)",
                  ratio(points, quiet.keptSeconds)));
  return 0;
}

} // namespace perfbench
