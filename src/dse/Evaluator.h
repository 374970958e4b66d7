// Evaluator.h - QoR evaluation of design points with a config-keyed cache.
//
// The evaluator is the subsystem's only bridge to the adaptor flow: a
// design point goes through flow::runAdaptorFlow (plus optional bit-exact
// co-simulation) and comes back as a QoR tuple (latency + DSP/BRAM/LUT/FF).
// Every evaluation is wrapped in a telemetry span and counted by the
// dse.* statistics, so `--chrome-trace` shows one span per synthesized
// point and `--stats` reports the synthesis/cache-hit split.
//
// The QoR cache is keyed by kernel name + canonical config key
// (dse::configKey): revisiting a point — within one search, across
// strategies sharing an evaluator, or across processes via the JSON cache
// file (schema "mha.dse.cache.v1") — performs no synthesis. Concurrent
// requests for the same un-cached point synthesize once; late arrivals
// block on the in-flight entry and count as cache hits.
//
// evaluateAll() fans a batch of points out across the evaluator's
// ThreadPool and returns QoRs in input order.
//
// The *fast path* is estimate()/estimateAll(): analytical QoR prediction
// through a lazily-built QoREstimation model (two probe synthesis runs,
// then pure arithmetic per point). Estimates never enter the QoR cache —
// they are predictions, not measurements — but the probes are real
// synthesis results and seed the cache (unless co-simulation is on, since
// probes are not co-simulated). Estimator-guided strategies score whole
// spaces through the fast path and promote only predicted-frontier points
// to evaluate().
#pragma once

#include "dse/DesignSpace.h"
#include "flow/Flow.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace mha::dse {

class QoREstimation;

/// Quality-of-result tuple for one design point.
struct QoR {
  bool ok = false;       // flow ran and the backend accepted the design
  bool cosimOk = true;   // bit-exact vs the host reference (when checked)
  int64_t latencyCycles = 0;
  int64_t dsp = 0;
  int64_t bram = 0;
  int64_t lut = 0;
  int64_t ff = 0;
  std::string error;     // first diagnostic line when !ok
};

/// The QoR of a finished flow: the top function's latency and resources,
/// or the flow's first diagnostic line when it failed.
QoR qorFromFlowResult(const flow::FlowResult &result);

struct EvaluatorOptions {
  /// Co-simulate every accepted design against the host reference; a
  /// mismatching design is recorded with cosimOk=false and never enters a
  /// Pareto archive.
  bool cosim = false;
  /// Worker threads for evaluateAll (0 = hardware concurrency).
  unsigned numThreads = 0;
  /// Options forwarded to flow::runAdaptorFlow.
  flow::FlowOptions flow;
};

class Evaluator {
public:
  Evaluator(const flow::KernelSpec &spec, EvaluatorOptions options = {});
  ~Evaluator();

  const flow::KernelSpec &spec() const { return *spec_; }

  /// Evaluates one design point (cached, thread-safe).
  QoR evaluate(const flow::KernelConfig &config);

  /// Evaluates a batch in parallel on the pool; results in input order.
  std::vector<QoR> evaluateAll(const std::vector<flow::KernelConfig> &configs);

  /// Analytically predicts one design point's QoR (fast path). Builds the
  /// estimator on first use (two probe synthesis runs); a point whose
  /// probes fail comes back with ok=false and the probe diagnostic.
  QoR estimate(const flow::KernelConfig &config);

  /// Predicts a batch on the pool; results in input order. The estimator
  /// build is serialized; the per-point arithmetic fans out.
  std::vector<QoR> estimateAll(const std::vector<flow::KernelConfig> &configs);

  /// The underlying estimator: built on first use (buildIfNeeded=true) or
  /// only returned if some estimate() already built it. nullptr when the
  /// probes failed (or it was never built).
  const QoREstimation *estimator(bool buildIfNeeded = true);

  /// Actual flow executions (cache misses) performed by this evaluator,
  /// probe runs included.
  int64_t synthRuns() const;
  /// Evaluations answered from the cache (including waits on in-flight
  /// synthesis of the same point).
  int64_t cacheHits() const;
  /// The subset of cacheHits that blocked on another thread's in-flight
  /// synthesis of the same point (tagged dse:cache-wait in traces, so
  /// waiters never book the producer's synthesis time as their own).
  int64_t cacheWaits() const;
  /// Analytical estimates served (estimate/estimateAll calls).
  int64_t estimates() const;
  /// Probe synthesis runs spent building the estimator (0 or 2).
  int64_t probeRuns() const;
  size_t cacheSize() const;

  /// Snapshot of all completed cache entries as (config key, QoR) in key
  /// order — what --resume warm-starts the Pareto archive from.
  std::vector<std::pair<std::string, QoR>> cachedResults() const;

  /// Renders the cache as JSON (schema "mha.dse.cache.v1", stable order).
  std::string cacheJson() const;
  /// Merges entries from a cache JSON document. Rejects documents with a
  /// different schema or kernel, and the whole document when any entry's
  /// QoR field is not an integer in int64 range (`*error` names it).
  /// Existing entries win on key collision.
  bool loadCacheJson(std::string_view text, std::string *error = nullptr);

  /// Reads a cache file for --resume (written with json::writeFile of
  /// cacheJson()).
  bool loadCacheFile(const std::string &path, std::string *error = nullptr);

private:
  struct Entry {
    bool done = false;
    QoR qor;
  };

  QoR runFlow(const flow::KernelConfig &config);
  void seedProbe(const flow::KernelConfig &config, const QoR &qor);

  const flow::KernelSpec *spec_;
  EvaluatorOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::string, Entry> cache_;
  int64_t synthRuns_ = 0;
  int64_t cacheHits_ = 0;
  int64_t cacheWaits_ = 0;
  int64_t probeRuns_ = 0;
  std::atomic<int64_t> estimates_{0};

  // Lazy estimator; estimatorMutex_ serializes the probe build only, and
  // estimatorReady_ lets the post-build fast path skip it entirely.
  std::mutex estimatorMutex_;
  bool estimatorBuilt_ = false;
  std::atomic<bool> estimatorReady_{false};
  std::string estimatorError_;
  std::unique_ptr<QoREstimation> estimator_;
};

} // namespace mha::dse
