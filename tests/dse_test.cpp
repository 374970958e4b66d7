// Tests for the design-space exploration subsystem: space enumeration and
// canonicalization, the QoR cache (no re-synthesis, JSON round-trip), the
// Pareto archive, and the search strategies (exhaustive frontier
// exactness vs the legacy hand-rolled sweep, seeded determinism).
#include "dse/Dse.h"
#include "dse/QoREstimation.h"
#include "lir/transforms/LoopUnroll.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace mha;
using namespace mha::dse;

namespace {

const flow::KernelSpec &kernel(const char *name) {
  const flow::KernelSpec *spec = flow::findKernel(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

/// The deliberately small grid the CLI smoke tests also use: 8 points on
/// a single-nest kernel, fast enough to synthesize exhaustively.
DesignSpaceOptions smallGrid() {
  DesignSpaceOptions options;
  options.pipelineIIs = {0, 1};
  options.unrollFactors = {1, 2};
  options.partitionFactors = {1, 2};
  return options;
}

std::set<std::string> archiveKeys(const std::vector<ArchiveEntry> &entries) {
  std::set<std::string> keys;
  for (const ArchiveEntry &entry : entries)
    keys.insert(entry.key);
  return keys;
}

std::vector<std::string> visitKeys(const std::vector<VisitedPoint> &visited) {
  std::vector<std::string> keys;
  for (const VisitedPoint &point : visited)
    keys.push_back(configKey(point.config));
  return keys;
}

QoR makeQoR(int64_t latency, int64_t dsp, int64_t lut = 100) {
  QoR qor;
  qor.ok = true;
  qor.latencyCycles = latency;
  qor.dsp = dsp;
  qor.bram = 0;
  qor.lut = lut;
  qor.ff = lut;
  return qor;
}

flow::KernelConfig makeConfig(int64_t ii, int64_t unroll, int64_t partition) {
  flow::KernelConfig config;
  config.pipelineII = ii;
  config.unrollFactor = unroll;
  config.partitionFactor = partition;
  config.dataflow = false;
  config.applyDirectives = ii > 0 || unroll > 1 || partition > 1;
  return config;
}

} // namespace

// ---------------------------------------------------------------------------
// DesignSpace

TEST(DesignSpace, BaselineFirstAndPointsUnique) {
  DesignSpace space(kernel("fir"), smallGrid());
  ASSERT_GT(space.size(), 0u);
  // The unoptimized design leads the enumeration.
  EXPECT_EQ(configKey(space.points().front()), configKey(space.baseline()));
  EXPECT_FALSE(space.points().front().applyDirectives);
  std::set<std::string> keys;
  for (const flow::KernelConfig &point : space.points()) {
    EXPECT_TRUE(space.contains(point));
    EXPECT_TRUE(keys.insert(configKey(point)).second)
        << "duplicate point " << configKey(point);
  }
  // 2*2*2 grid cells, one of which (ii=0,u=1,p=1) folds into the baseline.
  EXPECT_EQ(space.size(), 8u);
}

TEST(DesignSpace, AllDefaultKnobsFoldIntoBaseline) {
  DesignSpace space(kernel("fir"), smallGrid());
  flow::KernelConfig noop;
  noop.pipelineII = 0;
  noop.unrollFactor = 1;
  noop.partitionFactor = 1;
  noop.dataflow = false;
  noop.applyDirectives = true; // directives "on" but nothing requested
  EXPECT_EQ(configKey(space.canonicalize(noop)), configKey(space.baseline()));
}

TEST(DesignSpace, ClampsUnrollToInnermostTripDivisor) {
  DesignSpace space(kernel("fir"), smallGrid());
  int64_t trip = space.minInnermostTripCount();
  ASSERT_GT(trip, 1);
  // A non-dividing request lands on the largest divisor below it, exactly
  // like the backend's lir::clampUnrollFactor.
  flow::KernelConfig config = makeConfig(0, trip + 1, 1);
  EXPECT_EQ(space.canonicalize(config).unrollFactor, trip);
  config = makeConfig(0, 3, 1);
  EXPECT_EQ(space.canonicalize(config).unrollFactor,
            lir::clampUnrollFactor(trip, 3));
}

TEST(DesignSpace, DataflowOnlyOnMultiNestKernels) {
  // fir is one loop nest: the dataflow directive is a no-op there and the
  // space must not enumerate it.
  DesignSpace fir(kernel("fir"), smallGrid());
  EXPECT_FALSE(fir.multiNest());
  flow::KernelConfig config = makeConfig(1, 1, 1);
  config.dataflow = true;
  EXPECT_FALSE(fir.canonicalize(config).dataflow);

  // mm2 chains two gemms: dataflow is meaningful and doubles the grid.
  DesignSpace mm2(kernel("mm2"), smallGrid());
  EXPECT_TRUE(mm2.multiNest());
  EXPECT_TRUE(mm2.canonicalize(config).dataflow);
  // Every point gets a dataflow twin — including the otherwise-default
  // knobs, since dataflow alone is a real directive, not the baseline.
  EXPECT_EQ(mm2.size(), 2 * fir.size());
}

TEST(DesignSpace, NeighborsDifferInExactlyOneKnob) {
  DesignSpace space(kernel("fir"), smallGrid());
  for (const flow::KernelConfig &point : space.points()) {
    for (const flow::KernelConfig &next : space.neighbors(point)) {
      EXPECT_TRUE(space.contains(next));
      int differing = (next.pipelineII != point.pipelineII) +
                      (next.unrollFactor != point.unrollFactor) +
                      (next.partitionFactor != point.partitionFactor) +
                      (next.dataflow != point.dataflow);
      EXPECT_EQ(differing, 1)
          << configKey(point) << " -> " << configKey(next);
    }
  }
}

// ---------------------------------------------------------------------------
// ParetoArchive

TEST(ParetoArchive, KeepsNonDominatedRemovesDominated) {
  ParetoArchive archive(latencyDspObjectives());
  EXPECT_TRUE(archive.insert(makeConfig(0, 1, 1), makeQoR(100, 10)));
  // Worse on both axes: rejected.
  EXPECT_FALSE(archive.insert(makeConfig(0, 1, 2), makeQoR(120, 12)));
  EXPECT_EQ(archive.size(), 1u);
  // Trade-off: both survive.
  EXPECT_TRUE(archive.insert(makeConfig(0, 2, 1), makeQoR(50, 20)));
  EXPECT_EQ(archive.size(), 2u);
  // Dominates the first entry: it enters, the first leaves.
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 1), makeQoR(90, 10)));
  EXPECT_EQ(archive.size(), 2u);
  EXPECT_FALSE(archive.containsKey(configKey(makeConfig(0, 1, 1))));
}

TEST(ParetoArchive, EqualVectorsBothSurvive) {
  // A tied design is not strictly better: the classic frontier keeps both
  // (this matches the legacy example's none_of(noWorse && better) rule).
  ParetoArchive archive(latencyDspObjectives());
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 1), makeQoR(100, 10)));
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 2), makeQoR(100, 10)));
  EXPECT_EQ(archive.size(), 2u);
}

TEST(ParetoArchive, RejectsFailedAndMismatchingDesigns) {
  ParetoArchive archive;
  QoR failed;
  failed.ok = false;
  EXPECT_FALSE(archive.insert(makeConfig(0, 1, 1), failed));
  QoR mismatch = makeQoR(10, 1);
  mismatch.cosimOk = false;
  EXPECT_FALSE(archive.insert(makeConfig(1, 1, 1), mismatch));
  EXPECT_EQ(archive.size(), 0u);
}

TEST(ParetoArchive, DeterministicOrderIgnoresInsertionOrder) {
  std::vector<std::pair<flow::KernelConfig, QoR>> designs = {
      {makeConfig(2, 1, 1), makeQoR(80, 14)},
      {makeConfig(1, 1, 1), makeQoR(100, 10)},
      {makeConfig(1, 2, 1), makeQoR(60, 20)},
      {makeConfig(1, 2, 2), makeQoR(60, 20)},
  };
  ParetoArchive forward;
  for (const auto &[config, qor] : designs)
    forward.insert(config, qor);
  ParetoArchive backward;
  for (auto it = designs.rbegin(); it != designs.rend(); ++it)
    backward.insert(it->first, it->second);
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t i = 0; i < forward.size(); ++i)
    EXPECT_EQ(forward.entries()[i].key, backward.entries()[i].key);
  // Sorted by objective vector: the fastest design leads.
  EXPECT_EQ(forward.entries().front().qor.latencyCycles, 60);
}

// ---------------------------------------------------------------------------
// Evaluator / QoR cache

TEST(Evaluator, SecondEvaluationPerformsNoSynthesis) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  flow::KernelConfig point = space.points()[1];
  QoR first = evaluator.evaluate(point);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(evaluator.synthRuns(), 1);
  QoR second = evaluator.evaluate(point);
  // The synthesis-count statistic is unchanged: pure cache hit.
  EXPECT_EQ(evaluator.synthRuns(), 1);
  EXPECT_EQ(evaluator.cacheHits(), 1);
  EXPECT_EQ(second.latencyCycles, first.latencyCycles);
  EXPECT_EQ(second.dsp, first.dsp);
  EXPECT_EQ(second.lut, first.lut);
}

TEST(Evaluator, CacheJsonRoundTripPreservesResults) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  std::vector<QoR> direct = evaluator.evaluateAll(space.points());
  ASSERT_EQ(direct.size(), space.size());
  EXPECT_EQ(evaluator.synthRuns(), static_cast<int64_t>(space.size()));

  std::string text = evaluator.cacheJson();
  EXPECT_TRUE(json::validate(text));

  Evaluator resumed(kernel("fir"));
  std::string error;
  ASSERT_TRUE(resumed.loadCacheJson(text, &error)) << error;
  EXPECT_EQ(resumed.cacheSize(), evaluator.cacheSize());
  std::vector<QoR> reloaded = resumed.evaluateAll(space.points());
  // Every point answered from the reloaded cache, bit-for-bit equal.
  EXPECT_EQ(resumed.synthRuns(), 0);
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(reloaded[i].ok, direct[i].ok);
    EXPECT_EQ(reloaded[i].latencyCycles, direct[i].latencyCycles);
    EXPECT_EQ(reloaded[i].dsp, direct[i].dsp);
    EXPECT_EQ(reloaded[i].bram, direct[i].bram);
    EXPECT_EQ(reloaded[i].lut, direct[i].lut);
    EXPECT_EQ(reloaded[i].ff, direct[i].ff);
  }
}

TEST(Evaluator, LoadCacheRejectsForeignDocuments) {
  Evaluator evaluator(kernel("fir"));
  std::string error;
  EXPECT_FALSE(evaluator.loadCacheJson("not json", &error));
  EXPECT_FALSE(evaluator.loadCacheJson(R"({"schema":"wrong"})", &error));
  // A cache recorded for another kernel must not poison this one.
  Evaluator other(kernel("gemm"));
  other.evaluate(makeConfig(1, 1, 1));
  EXPECT_FALSE(evaluator.loadCacheJson(other.cacheJson(), &error));
  EXPECT_EQ(evaluator.cacheSize(), 0u);
}

// ---------------------------------------------------------------------------
// Strategies

TEST(Strategies, FactoryKnowsAllNamesRejectsUnknown) {
  for (const std::string &name : strategyNames()) {
    std::unique_ptr<SearchStrategy> strategy = createStrategy(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
  }
  EXPECT_EQ(createStrategy("frobnicate"), nullptr);
}

TEST(Strategies, ExhaustiveReproducesLegacyExampleFrontier) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  std::optional<DseResult> result =
      runDse(space, evaluator, "exhaustive", {}, latencyDspObjectives());
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->visited.size(), space.size());

  // The hand-rolled rule the old examples/design_space_exploration.cpp
  // used: p survives iff no q is no-worse on (latency, dsp) and strictly
  // better on one.
  std::set<std::string> legacy;
  for (const VisitedPoint &p : result->visited) {
    if (!p.qor.ok)
      continue;
    bool dominated = std::any_of(
        result->visited.begin(), result->visited.end(),
        [&](const VisitedPoint &q) {
          if (!q.qor.ok || &q == &p)
            return false;
          bool noWorse = q.qor.latencyCycles <= p.qor.latencyCycles &&
                         q.qor.dsp <= p.qor.dsp;
          bool better = q.qor.latencyCycles < p.qor.latencyCycles ||
                        q.qor.dsp < p.qor.dsp;
          return noWorse && better;
        });
    if (!dominated)
      legacy.insert(configKey(p.config));
  }
  EXPECT_EQ(archiveKeys(result->pareto), legacy);
}

TEST(Strategies, RandomIsSeedDeterministic) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  StrategyOptions options;
  options.budget = 4;
  options.seed = 7;
  std::optional<DseResult> first = runDse(space, evaluator, "random", options);
  std::optional<DseResult> second = runDse(space, evaluator, "random", options);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->visited.size(), 4u);
  // Same seed, same walk — even though the second run is all cache hits.
  EXPECT_EQ(visitKeys(first->visited), visitKeys(second->visited));
  EXPECT_EQ(archiveKeys(first->pareto), archiveKeys(second->pareto));

  StrategyOptions reseeded = options;
  reseeded.seed = 8;
  std::optional<DseResult> other = runDse(space, evaluator, "random", reseeded);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(visitKeys(first->visited), visitKeys(other->visited));
}

TEST(Strategies, RandomFullBudgetMatchesExhaustiveFrontier) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  std::optional<DseResult> full = runDse(space, evaluator, "exhaustive", {});
  StrategyOptions options;
  options.budget = space.size();
  options.seed = 3;
  std::optional<DseResult> sampled =
      runDse(space, evaluator, "random", options);
  ASSERT_TRUE(full && sampled);
  // Covering the whole space in any order yields the same archive.
  EXPECT_EQ(archiveKeys(sampled->pareto), archiveKeys(full->pareto));
}

TEST(Strategies, GreedyIsDeterministicAndArchiveWithinExhaustive) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  StrategyOptions options;
  options.budget = 12;
  std::optional<DseResult> first = runDse(space, evaluator, "greedy", options);
  std::optional<DseResult> second = runDse(space, evaluator, "greedy", options);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(visitKeys(first->visited), visitKeys(second->visited));

  // Hill-climbing starts from the unoptimized baseline.
  ASSERT_FALSE(first->visited.empty());
  EXPECT_EQ(visitKeys(first->visited).front(), configKey(space.baseline()));

  // On this grid the local search's archive is a subset of the exhaustive
  // frontier (the QoR model is deterministic, so this stays true).
  std::optional<DseResult> full = runDse(space, evaluator, "exhaustive", {});
  ASSERT_TRUE(full.has_value());
  std::set<std::string> fullKeys = archiveKeys(full->pareto);
  for (const ArchiveEntry &entry : first->pareto)
    EXPECT_TRUE(fullKeys.count(entry.key))
        << entry.key << " not on the exhaustive frontier";
}

TEST(Strategies, BudgetBoundsEvaluatorRequests) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  StrategyOptions options;
  options.budget = 3;
  std::optional<DseResult> result =
      runDse(space, evaluator, "exhaustive", options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->visited.size(), 3u);
  EXPECT_EQ(result->evaluated, 3u);
}

// ---------------------------------------------------------------------------
// Run driver / report JSON

TEST(Dse, UnknownStrategyReturnsNullopt) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  EXPECT_FALSE(runDse(space, evaluator, "frobnicate", {}).has_value());
}

TEST(Dse, ReportJsonValidatesAndCarriesTheRun) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  std::optional<DseResult> result = runDse(space, evaluator, "exhaustive", {});
  ASSERT_TRUE(result.has_value());
  std::string text = result->json();
  std::string error;
  ASSERT_TRUE(json::validate(text, &error)) << error;

  std::optional<json::Value> doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get("schema")->asString(), "mha.dse.v1");
  EXPECT_EQ(doc->get("kernel")->asString(), "fir");
  EXPECT_EQ(doc->get("strategy")->asString(), "exhaustive");
  EXPECT_EQ(doc->get("space_size")->asInt(), 8);
  ASSERT_NE(doc->get("points"), nullptr);
  EXPECT_EQ(doc->get("points")->elements().size(), result->visited.size());
  ASSERT_NE(doc->get("pareto"), nullptr);
  EXPECT_EQ(doc->get("pareto")->elements().size(), result->pareto.size());
  const json::Value &point = doc->get("points")->elements().front();
  for (const char *field : {"ii", "unroll", "partition", "latency", "dsp",
                            "bram", "lut", "ff"})
    EXPECT_NE(point.get(field), nullptr) << field;

  // The estimator/warm-start accounting fields are always present.
  for (const char *field :
       {"estimated", "warm_started", "cache_waits", "estimator"})
    EXPECT_NE(doc->get(field), nullptr) << field;
  const json::Value *estimator = doc->get("estimator");
  for (const char *field :
       {"used", "probe_runs", "estimates", "error_samples",
        "latency_mean_abs_pct", "latency_max_abs_pct", "dsp_mean_abs_pct",
        "bram_mean_abs_pct", "lut_mean_abs_pct"})
    EXPECT_NE(estimator->get(field), nullptr) << field;
}

TEST(Evaluator, LatencyHistogramsSampleTheirSpansOnce) {
  // With metrics on, every flow run through evaluate() (not the probes)
  // and every estimate leaves exactly one sample, taken from its span.
  metrics::Registry &reg = metrics::Registry::global();
  reg.resetForTest();
  metrics::setEnabled(true);
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  ASSERT_TRUE(runDse(space, evaluator, "refine", {}).has_value());
  evaluator.evaluateAll(space.points());
  metrics::setEnabled(false);

  ASSERT_EQ(evaluator.probeRuns(), QoREstimation::kProbeRuns);
  EXPECT_GT(evaluator.synthRuns(), evaluator.probeRuns());
  EXPECT_EQ(reg.histogram("mha_dse_synth_us").merged().count,
            evaluator.synthRuns() - evaluator.probeRuns());
  EXPECT_GT(evaluator.estimates(), 0);
  EXPECT_EQ(reg.histogram("mha_dse_estimate_us").merged().count,
            evaluator.estimates());
  EXPECT_EQ(reg.histogram("mha_dse_cache_wait_us").merged().count,
            evaluator.cacheWaits());
  reg.resetForTest();
}

TEST(Evaluator, LoadCacheRefusesNonIntegerQoRFields) {
  // The fir cache whose II=1 entry claims 1e300 cycles: the whole
  // document is refused, naming the entry and the field, and nothing is
  // merged, so no out-of-range latency can reach a Pareto frontier.
  const char *entry =
      R"({"key": "ii=1|unroll=1|part=1|df=0|dir=1", "ok": true, )"
      R"("cosim_ok": true, "latency": %s, "dsp": 14, "bram": 0, )"
      R"("lut": 1012, "ff": 1076, "error": ""})";
  auto document = [&](const char *latency) {
    return R"({"schema": "mha.dse.cache.v1", "kernel": "fir", "entries": [)"
           R"({"key": "ii=0|unroll=1|part=1|df=0|dir=0", "ok": true, )"
           R"("latency": 12547}, )" +
           strfmt(entry, latency) + "]}";
  };
  for (const char *bad : {"1e300", "7747.5", "-1e19", "\"7747\""}) {
    Evaluator evaluator(kernel("fir"));
    std::string error;
    EXPECT_FALSE(evaluator.loadCacheJson(document(bad), &error)) << bad;
    EXPECT_NE(error.find("'ii=1|unroll=1|part=1|df=0|dir=1': 'latency'"),
              std::string::npos)
        << error;
    EXPECT_EQ(evaluator.cacheSize(), 0u) << bad;
  }
  Evaluator evaluator(kernel("fir"));
  std::string error;
  ASSERT_TRUE(evaluator.loadCacheJson(document("7747"), &error)) << error;
  EXPECT_EQ(evaluator.cacheSize(), 2u);
}

// ---------------------------------------------------------------------------
// Config-key parsing (the --resume warm-start path)

TEST(ConfigKey, ParseRoundTripsEveryEnumeratedPoint) {
  DesignSpace space(kernel("gesummv")); // multi-nest: dataflow keys too
  for (const flow::KernelConfig &config : space.points()) {
    std::string key = configKey(config);
    std::optional<flow::KernelConfig> parsed = parseConfigKey(key);
    ASSERT_TRUE(parsed.has_value()) << key;
    EXPECT_EQ(configKey(*parsed), key);
  }
}

TEST(ConfigKey, ParseRejectsMalformedKeys) {
  for (const char *bad :
       {"", "ii=1", "ii=1|unroll=2|part=4|df=0", "ii=x|unroll=2|part=4|df=0|dir=1",
        "ii=1|unroll=2|part=4|df=2|dir=1", "unroll=2|ii=1|part=4|df=0|dir=1",
        "ii=1|unroll=2|part=4|df=0|dir=1|extra=9"})
    EXPECT_FALSE(parseConfigKey(bad).has_value()) << bad;
}

TEST(Dse, WarmStartReseedsArchiveFromCache) {
  DesignSpace space(kernel("fir"), smallGrid());

  // First run: exhaustive, populating the cache (as --cache would persist).
  Evaluator first(kernel("fir"));
  std::optional<DseResult> full = runDse(space, first, "exhaustive", {});
  ASSERT_TRUE(full.has_value());

  // Second run resumes from the same cache with a tiny budget. Without
  // warm start the archive would only hold the single visited point; with
  // it, the previous frontier survives.
  Evaluator second(kernel("fir"));
  std::string error;
  ASSERT_TRUE(second.loadCacheJson(first.cacheJson(), &error)) << error;
  StrategyOptions options;
  options.budget = 1;
  options.warmStart = true;
  std::optional<DseResult> resumed =
      runDse(space, second, "exhaustive", options);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_GT(resumed->warmStarted, 0u);
  EXPECT_EQ(resumed->evaluated, 1u);
  EXPECT_EQ(archiveKeys(resumed->pareto), archiveKeys(full->pareto));
  // And the resumed run performed no synthesis at all (all cached).
  EXPECT_EQ(second.synthRuns(), 0);
}

// ---------------------------------------------------------------------------
// Estimator-guided strategies

TEST(Strategies, RefineFrontierContainsExhaustiveFrontier) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator exhaustiveEval(kernel("fir"));
  std::optional<DseResult> full =
      runDse(space, exhaustiveEval, "exhaustive", {});
  ASSERT_TRUE(full.has_value());

  Evaluator refineEval(kernel("fir"));
  std::optional<DseResult> refined = runDse(space, refineEval, "refine", {});
  ASSERT_TRUE(refined.has_value());
  EXPECT_GT(refined->estimated, 0u);

  std::set<std::string> refinedKeys = archiveKeys(refined->pareto);
  for (const ArchiveEntry &entry : full->pareto)
    EXPECT_TRUE(refinedKeys.count(entry.key))
        << entry.key << " on the exhaustive frontier but not refine's";
}

TEST(Strategies, GeneticAndAnnealAreSeedDeterministic) {
  for (const char *name : {"genetic", "anneal"}) {
    DesignSpace space(kernel("fir"), smallGrid());
    StrategyOptions options;
    options.seed = 42;
    Evaluator a(kernel("fir"));
    Evaluator b(kernel("fir"));
    std::optional<DseResult> first = runDse(space, a, name, options);
    std::optional<DseResult> second = runDse(space, b, name, options);
    ASSERT_TRUE(first.has_value()) << name;
    ASSERT_TRUE(second.has_value()) << name;
    EXPECT_EQ(visitKeys(first->visited), visitKeys(second->visited)) << name;
    EXPECT_EQ(first->estimated, second->estimated) << name;
    EXPECT_EQ(archiveKeys(first->pareto), archiveKeys(second->pareto))
        << name;
  }
}

TEST(Strategies, EstimateOnlySynthesizesOnlyTheProbes) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  StrategyOptions options;
  options.estimateOnly = true;
  std::optional<DseResult> result =
      runDse(space, evaluator, "exhaustive", options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->evaluated, space.size());
  EXPECT_EQ(result->estimated, space.size());
  EXPECT_EQ(evaluator.synthRuns(), QoREstimation::kProbeRuns);
  EXPECT_GE(evaluator.estimates(), static_cast<int64_t>(space.size()));
  EXPECT_FALSE(result->pareto.empty());
}

TEST(Evaluator, CacheWaitCounterStartsAtZeroAndHitsDoNotWait) {
  Evaluator evaluator(kernel("fir"));
  flow::KernelConfig config; // default directive point
  evaluator.evaluate(config);
  evaluator.evaluate(config); // sequential re-visit: a hit, not a wait
  EXPECT_EQ(evaluator.synthRuns(), 1);
  EXPECT_EQ(evaluator.cacheHits(), 1);
  EXPECT_EQ(evaluator.cacheWaits(), 0);
}
