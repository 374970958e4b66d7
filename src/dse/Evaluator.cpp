#include "dse/Evaluator.h"

#include "dse/QoREstimation.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <fstream>
#include <sstream>

namespace mha::dse {

namespace {

metrics::Counter &numSynthRuns =
    metrics::statistic("dse", "synth-runs", "design points synthesized");
metrics::Counter &numCacheHits = metrics::statistic(
    "dse", "cache-hits", "design points answered from the QoR cache");
metrics::Counter &numCacheWaits = metrics::statistic(
    "dse", "cache-waits",
    "cache hits that blocked on an in-flight synthesis of the same point");
metrics::Counter &numEstimates =
    metrics::statistic("dse", "estimates", "design points scored analytically");
metrics::Counter &numProbeRuns = metrics::statistic(
    "dse", "probe-runs", "synthesis runs spent building the QoR estimator");

/// Evaluator latency histograms: where a design point's answer came from
/// and what it cost. synth = a full virtual-synthesis flow run; estimate
/// = the analytical model; cache_wait = idle time blocked on another
/// thread's in-flight synthesis of the same point. Each sample is the
/// finish() of the span around the same work.
metrics::Histogram &synthUsHistogram() {
  static metrics::Histogram &hist = metrics::Registry::global().histogram(
      "mha_dse_synth_us", "full synthesis flow latency per design point");
  return hist;
}

metrics::Histogram &estimateUsHistogram() {
  static metrics::Histogram &hist = metrics::Registry::global().histogram(
      "mha_dse_estimate_us", "analytical QoR estimate latency");
  return hist;
}

metrics::Histogram &cacheWaitUsHistogram() {
  static metrics::Histogram &hist = metrics::Registry::global().histogram(
      "mha_dse_cache_wait_us",
      "time blocked on an in-flight synthesis of the same point");
  return hist;
}

} // namespace

Evaluator::Evaluator(const flow::KernelSpec &spec, EvaluatorOptions options)
    : spec_(&spec), options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(options_.numThreads)) {}

Evaluator::~Evaluator() = default;

QoR Evaluator::runFlow(const flow::KernelConfig &config) {
  QoR qor;
  flow::FlowResult result = flow::runAdaptorFlow(*spec_, config,
                                                 options_.flow);
  if (!result.ok) {
    qor.error = firstLine(result.diagnostics);
    if (qor.error.empty())
      qor.error = "flow failed";
    return qor;
  }
  const vhls::FunctionReport *top = result.synth.top();
  if (!top) {
    qor.error = "no top function report";
    return qor;
  }
  qor.ok = true;
  qor.latencyCycles = top->latencyCycles;
  qor.dsp = top->resources.dsp;
  qor.bram = top->resources.bram;
  qor.lut = top->resources.lut;
  qor.ff = top->resources.ff;
  if (options_.cosim) {
    std::string error;
    if (!flow::cosimAgainstReference(result, *spec_, error)) {
      qor.cosimOk = false;
      qor.error = error;
    }
  }
  return qor;
}

QoR Evaluator::evaluate(const flow::KernelConfig &config) {
  std::string key = configKey(config);
  std::unique_lock<std::mutex> lock(mutex_);
  auto [it, inserted] = cache_.try_emplace(key);
  Entry &entry = it->second;
  if (!inserted) {
    // Someone already has (or is producing) this point. A wait on an
    // in-flight entry gets its own distinctly-named span: the producer's
    // dse:evaluate span owns the synthesis wall time, and booking the
    // same interval again under dse:evaluate would double-count it in
    // trace totals. dse:cache-wait intervals are idle time, not work.
    if (!entry.done) {
      telemetry::Span span(strfmt("dse:cache-wait:%s", spec_->name.c_str()),
                           "dse",
                           {{"kernel", spec_->name}, {"config", key}});
      ++cacheWaits_;
      ++numCacheWaits;
      while (!entry.done)
        ready_.wait(lock);
      cacheWaitUsHistogram().recordMs(span.finish());
    }
    ++cacheHits_;
    ++numCacheHits;
    return entry.qor;
  }
  lock.unlock();
  telemetry::Span span(strfmt("dse:evaluate:%s", spec_->name.c_str()), "dse",
                       {{"kernel", spec_->name}, {"config", key}});
  QoR qor = runFlow(config);
  synthUsHistogram().recordMs(span.finish());
  lock.lock();
  entry.qor = qor;
  entry.done = true;
  ++synthRuns_;
  ++numSynthRuns;
  ready_.notify_all();
  return qor;
}

std::vector<QoR>
Evaluator::evaluateAll(const std::vector<flow::KernelConfig> &configs) {
  std::vector<QoR> results(configs.size());
  parallelFor(*pool_, configs.size(),
              [&](size_t i) { results[i] = evaluate(configs[i]); });
  return results;
}

void Evaluator::seedProbe(const flow::KernelConfig &config, const QoR &qor) {
  // Probes are real synthesis results, so they can pre-fill the QoR
  // cache — but only when co-simulation is off: a cached entry must mean
  // the same thing evaluate() would have produced, and probes skip cosim.
  if (options_.cosim)
    return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = cache_.try_emplace(configKey(config));
  if (!inserted)
    return;
  it->second.done = true;
  it->second.qor = qor;
}

const QoREstimation *Evaluator::estimator(bool buildIfNeeded) {
  // Double-checked: after the build attempt a relaxed acquire load is the
  // whole fast path, so a parallel estimateAll never serializes here.
  if (estimatorReady_.load(std::memory_order_acquire))
    return estimator_.get();
  if (!buildIfNeeded)
    return nullptr;
  std::lock_guard<std::mutex> lock(estimatorMutex_);
  if (!estimatorBuilt_) {
    estimatorBuilt_ = true;
    telemetry::Span span(strfmt("dse:probe:%s", spec_->name.c_str()), "dse",
                         {{"kernel", spec_->name}});
    estimator_ = QoREstimation::build(*spec_, options_.flow,
                                      &estimatorError_);
    int64_t probes = QoREstimation::kProbeRuns;
    {
      std::lock_guard<std::mutex> countLock(mutex_);
      probeRuns_ += probes;
      synthRuns_ += probes;
    }
    numProbeRuns.add(probes);
    numSynthRuns.add(probes);
    if (estimator_) {
      seedProbe(estimator_->baselineProbeConfig(),
                estimator_->baselineProbeQoR());
      seedProbe(estimator_->pipelinedProbeConfig(),
                estimator_->pipelinedProbeQoR());
    }
    estimatorReady_.store(true, std::memory_order_release);
  }
  return estimator_.get();
}

QoR Evaluator::estimate(const flow::KernelConfig &config) {
  const QoREstimation *est = estimator();
  telemetry::Span span("dse:estimate", "dse");
  estimates_.fetch_add(1, std::memory_order_relaxed);
  ++numEstimates;
  QoR qor;
  if (est) {
    qor = est->estimate(config);
  } else {
    std::lock_guard<std::mutex> lock(estimatorMutex_);
    qor.error = estimatorError_.empty() ? "estimator unavailable"
                                        : estimatorError_;
  }
  estimateUsHistogram().recordMs(span.finish());
  return qor;
}

std::vector<QoR>
Evaluator::estimateAll(const std::vector<flow::KernelConfig> &configs) {
  // Build once up front so the batch's parallel arithmetic never
  // serializes on the probe synthesis.
  estimator();
  telemetry::Span span(strfmt("dse:estimate-batch:%s", spec_->name.c_str()),
                       "dse",
                       {{"kernel", spec_->name},
                        {"points", strfmt("%zu", configs.size())}});
  std::vector<QoR> results(configs.size());
  parallelFor(*pool_, configs.size(),
              [&](size_t i) { results[i] = estimate(configs[i]); });
  return results;
}

int64_t Evaluator::synthRuns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return synthRuns_;
}

int64_t Evaluator::cacheHits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cacheHits_;
}

int64_t Evaluator::cacheWaits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cacheWaits_;
}

int64_t Evaluator::estimates() const {
  return estimates_.load(std::memory_order_relaxed);
}

int64_t Evaluator::probeRuns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return probeRuns_;
}

size_t Evaluator::cacheSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::vector<std::pair<std::string, QoR>> Evaluator::cachedResults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, QoR>> out;
  out.reserve(cache_.size());
  for (const auto &[key, entry] : cache_)
    if (entry.done)
      out.emplace_back(key, entry.qor);
  return out;
}

std::string Evaluator::cacheJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out += "{\n  \"schema\": \"mha.dse.cache.v1\",\n";
  out += strfmt("  \"kernel\": \"%s\",\n  \"entries\": [",
                json::escape(spec_->name).c_str());
  bool first = true;
  for (const auto &[key, entry] : cache_) {
    if (!entry.done)
      continue; // in-flight points are not results yet
    out += first ? "\n" : ",\n";
    first = false;
    const QoR &q = entry.qor;
    out += strfmt("    {\"key\": \"%s\", \"ok\": %s, \"cosim_ok\": %s, "
                  "\"latency\": %lld, \"dsp\": %lld, \"bram\": %lld, "
                  "\"lut\": %lld, \"ff\": %lld, \"error\": \"%s\"}",
                  json::escape(key).c_str(), q.ok ? "true" : "false",
                  q.cosimOk ? "true" : "false",
                  static_cast<long long>(q.latencyCycles),
                  static_cast<long long>(q.dsp),
                  static_cast<long long>(q.bram),
                  static_cast<long long>(q.lut),
                  static_cast<long long>(q.ff),
                  json::escape(q.error).c_str());
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Evaluator::loadCacheJson(std::string_view text, std::string *error) {
  std::string parseError;
  std::optional<json::Value> doc = json::parse(text, &parseError);
  if (!doc) {
    if (error)
      *error = "malformed cache JSON: " + parseError;
    return false;
  }
  const json::Value *schema = doc->get("schema");
  if (!schema || schema->asString() != "mha.dse.cache.v1") {
    if (error)
      *error = "not an mha.dse.cache.v1 document";
    return false;
  }
  const json::Value *kernel = doc->get("kernel");
  if (!kernel || kernel->asString() != spec_->name) {
    if (error)
      *error = strfmt("cache is for kernel '%s', evaluator is for '%s'",
                      kernel ? kernel->asString().c_str() : "?",
                      spec_->name.c_str());
    return false;
  }
  const json::Value *entries = doc->get("entries");
  if (!entries || !entries->isArray()) {
    if (error)
      *error = "cache document has no 'entries' array";
    return false;
  }
  // Read every entry before merging any, so a bad field refuses the
  // whole document instead of resuming a half-loaded cache.
  std::vector<std::pair<std::string, QoR>> loaded;
  for (const json::Value &item : entries->elements()) {
    const json::Value *key = item.get("key");
    if (!key || !key->isString())
      continue;
    QoR qor;
    for (auto [name, field] : {std::pair{"latency", &qor.latencyCycles},
                               std::pair{"dsp", &qor.dsp},
                               std::pair{"bram", &qor.bram},
                               std::pair{"lut", &qor.lut},
                               std::pair{"ff", &qor.ff}}) {
      const json::Value *v = item.get(name);
      std::optional<int64_t> n = v ? v->asInt() : 0;
      if (!n) {
        if (error)
          *error = strfmt("cache entry '%s': '%s' is not an integer in "
                          "int64 range",
                          key->asString().c_str(), name);
        return false;
      }
      *field = *n;
    }
    const json::Value *ok = item.get("ok");
    const json::Value *cosimOk = item.get("cosim_ok");
    qor.ok = ok && ok->asBool();
    qor.cosimOk = !cosimOk || cosimOk->asBool();
    if (const json::Value *err = item.get("error"))
      qor.error = err->asString();
    loaded.emplace_back(key->asString(), std::move(qor));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto &[key, qor] : loaded) // existing (possibly fresher) entries win
    cache_.try_emplace(std::move(key), Entry{true, std::move(qor)});
  return true;
}

bool Evaluator::loadCacheFile(const std::string &path, std::string *error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error)
      *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return loadCacheJson(buffer.str(), error);
}

} // namespace mha::dse
