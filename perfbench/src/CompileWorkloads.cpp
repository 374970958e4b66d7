// compile-default and compile-unrolled: one flow at a time, StageCache
// off, over a fixed corpus of design points visited in seeded round
// orders. A run always finishes the round it is in, so every run weighs
// every design point the same.
#include "Workloads.h"

#include "support/StringUtils.h"

#include <map>

namespace perfbench {

using namespace mha;

namespace {

/// What the run learned about one design point.
struct PointRecord {
  DesignPoint point;
  std::string json; // first report; every repetition must match it
  int64_t ops = 0;
  bool failed = false;
};

std::string firstLine(const std::string &text) {
  return text.substr(0, text.find('\n'));
}

int runCompile(Context &ctx, const std::vector<DesignPoint> &corpus,
               double tailPercentile) {
  const Options &opt = ctx.options();
  // Warm-up: one untimed round, so lazy set-up and first-touch costs land
  // in set-up time rather than in the first timed ops.
  for (const DesignPoint &point : corpus)
    runFlow(point);
  if (!ctx.ready())
    return 0;

  std::map<std::string, PointRecord> records;
  std::vector<double> opMs, tracedMs;
  std::vector<TimedOp> timed;
  double bookkeepingMs = 0;
  int64_t op = 0;
  Clock::time_point start = Clock::now();
  for (uint64_t round = 0;; ++round) {
    std::vector<DesignPoint> order = corpus;
    Rng rng(deriveSeed(opt.seed, 1000 + round));
    shuffle(order, rng);
    for (const DesignPoint &point : order) {
      Clock::time_point t0 = Clock::now();
      flow::FlowResult result = runFlow(point);
      Clock::time_point t1 = Clock::now();
      opMs.push_back(msBetween(t0, t1));
      timed.push_back(
          {msBetween(start, t1) - bookkeepingMs, opMs.back(), point.key()});

      // Bookkeeping, excluded from the timed region.
      auto [it, inserted] = records.try_emplace(point.key());
      PointRecord &rec = it->second;
      rec.point = point;
      rec.ops++;
      std::string json = result.ok ? result.synth.json() : std::string();
      if (!result.ok) {
        rec.failed = true;
        ctx.fail(1, point.key() + ": flow failed: " +
                        firstLine(result.diagnostics));
      } else if (inserted) {
        rec.json = json;
      } else if (json != rec.json) {
        rec.failed = true;
        ctx.fail(1, point.key() + ": report differs between repetitions");
      }
      if (opt.trace) {
        ctx.recorder().labelOp(op, point.key());
        ReplayOutcome replay = replayFlow(point, ctx.recorder(), op);
        tracedMs.push_back(replay.flowMs);
        if (!replay.ok || replay.reportJson != json) {
          rec.failed = true;
          ctx.fail(1, point.key() + ": layer-by-layer replay differs from "
                                    "the flow: " + replay.error);
        }
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
  ctx.attempted(op);

  // Correctness gate: every distinct point once more, co-simulated.
  std::vector<PointRecord *> points;
  for (auto &[key, rec] : records)
    points.push_back(&rec);
  std::vector<Qor> qors(points.size());
  parallelFor(points.size(), 4, [&](size_t i) {
    PointRecord &rec = *points[i];
    if (rec.failed)
      return;
    flow::FlowResult result;
    std::string why = checkPoint(ctx, rec.point, rec.json, result);
    if (!why.empty()) {
      rec.failed = true;
      ctx.fail(rec.ops, why);
      return;
    }
    qors[i] = qorOf(result);
  });

  if (opt.trace) {
    ctx.fillLayerMetrics();
    ctx.setTraceOverhead(opMs, tracedMs);
    ctx.note(strfmt("adaptor.between_pass_ms is %.1f%% of adaptor.pipeline_ms; "
                    "vhls.synth_ms is %.1f%% of the flow time",
                    100 * ctx.metrics().value("adaptor.between_pass_share"),
                    100 * ctx.metrics().value("vhls.synth_share")));
    return 0;
  }
  std::vector<double> latency, lut;
  for (const Qor &q : qors)
    if (q.latency > 0) {
      latency.push_back(q.latency);
      lut.push_back(q.lut);
    }
  QuietWindows quiet = quietWindows(timed);
  std::vector<double> quietMs;
  std::map<std::string, std::vector<double>> quietPerPoint;
  for (size_t i = 0; i < timed.size(); ++i)
    if (quiet.kept[i]) {
      quietMs.push_back(timed[i].ms);
      quietPerPoint[timed[i].group].push_back(timed[i].ms);
    }
  std::vector<std::vector<double>> perPoint;
  for (auto &[key, ms] : quietPerPoint)
    perPoint.push_back(std::move(ms));
  ctx.setOpMetrics(quietMs, geomeanOfMedians(perPoint),
                   tail(quietMs, tailPercentile), quiet,
                   double(quietMs.size()), latency, lut, peakRss);
  ctx.note(strfmt("%zu design points, %lld flows", records.size(),
                  static_cast<long long>(op)));
  return 0;
}

} // namespace

// ~3000 flows in the quiet windows of a 25-s run: p99 leaves ~30 samples
// beyond it.
int runCompileDefault(Context &ctx) {
  return runCompile(ctx, defaultCorpus(), 99);
}

int runCompileUnrolled(Context &ctx) {
  std::vector<std::unique_ptr<flow::KernelSpec>> loops =
      generateLongLoops(ctx.options().seed);
  // ~120 flows in the quiet windows of a 25-s run: p90 leaves ~12 samples
  // beyond it (fewer on a slow host, and then tail() moves to the highest
  // percentile that leaves ten).
  return runCompile(ctx, unrolledCorpus(loops), 90);
}

} // namespace perfbench
