#include "support/Metrics.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

namespace mha::metrics {

namespace {

std::atomic<bool> gEnabled{false};

/// The metric family every statistic() counter belongs to. Its labels are
/// {group, name}, and the registry key orders them by (group, name).
constexpr std::string_view kStatName = "mha_stat";

/// Renders "name{k1=\"v1\",k2=\"v2\"}" — the registry key and the
/// Prometheus sample name in one.
std::string renderKey(std::string_view name, const Labels &labels) {
  std::string out(name);
  if (labels.empty())
    return out;
  out += "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i)
      out += ",";
    out += labels[i].first;
    out += "=\"";
    out += json::escape(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

} // namespace

bool enabled() { return gEnabled.load(std::memory_order_relaxed); }
void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }

int bucketIndex(int64_t value) {
  if (value <= 0)
    return 0;
  int bucket = 64 - std::countl_zero(static_cast<uint64_t>(value));
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

int64_t bucketLowerBound(int bucket) {
  return bucket <= 0 ? 0 : int64_t(1) << (bucket - 1);
}

int64_t bucketUpperBound(int bucket) {
  return bucket <= 0 ? 1 : int64_t(1) << bucket;
}

namespace detail {

int shardIndex() {
  static std::atomic<int> nextShard{0};
  thread_local int tlShard =
      nextShard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return tlShard;
}

} // namespace detail

// --- Counter ----------------------------------------------------------

int64_t Counter::value() const {
  int64_t total = 0;
  for (const detail::CounterShard &shard : shards_)
    total += shard.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (detail::CounterShard &shard : shards_)
    shard.value.store(0, std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------

void Histogram::recordAlways(int64_t value) {
  if (value < 0)
    value = 0;
  detail::HistogramShard &shard = shards_[detail::shardIndex()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  shard.buckets[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  int64_t seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !shard.min.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed))
    ;
  seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed))
    ;
}

void Histogram::reset() {
  for (detail::HistogramShard &shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(INT64_MAX, std::memory_order_relaxed);
    shard.max.store(INT64_MIN, std::memory_order_relaxed);
    for (std::atomic<int64_t> &bucket : shard.buckets)
      bucket.store(0, std::memory_order_relaxed);
  }
}

Histogram::Merged Histogram::merged() const {
  Merged out;
  int64_t minSeen = INT64_MAX, maxSeen = INT64_MIN;
  for (const detail::HistogramShard &shard : shards_) {
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
    minSeen = std::min(minSeen, shard.min.load(std::memory_order_relaxed));
    maxSeen = std::max(maxSeen, shard.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b)
      out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
  }
  out.min = out.count ? minSeen : 0;
  out.max = out.count ? maxSeen : 0;
  return out;
}

double Histogram::Merged::percentile(double p) const {
  if (count == 0)
    return 0;
  p = std::clamp(p, 0.0, 100.0);
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * double(count)));
  if (rank < 1)
    rank = 1;
  int64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0)
      continue;
    if (cumulative + buckets[b] >= rank) {
      double lo = double(bucketLowerBound(b));
      double hi = double(bucketUpperBound(b));
      double within = double(rank - cumulative) / double(buckets[b]);
      double value = lo + (hi - lo) * within;
      return std::clamp(value, double(min), double(max));
    }
    cumulative += buckets[b];
  }
  return double(max);
}

// --- Registry ---------------------------------------------------------

namespace {

template <typename Metric> struct Registered {
  std::string name;
  Labels labels;
  std::string help;
  // Metrics are heap-allocated once and never freed: references handed to
  // call sites must outlive any resetForTest()/registry growth.
  std::unique_ptr<Metric> metric;
};

} // namespace

struct Registry::Impl {
  mutable std::mutex mutex;
  telemetry::Clock::time_point epoch = telemetry::Clock::now();
  // Keyed by renderKey(name, labels); std::map keeps exports sorted.
  std::map<std::string, Registered<Counter>> counters;
  std::map<std::string, Registered<Gauge>> gauges;
  std::map<std::string, Registered<Histogram>> histograms;
};

Registry::Registry() = default;

Registry::Impl &Registry::impl() const {
  static Impl instance;
  return instance;
}

Registry &Registry::global() {
  static Registry instance;
  return instance;
}

namespace {

template <typename Metric>
Metric &createOrGet(std::map<std::string, Registered<Metric>> &map,
                    std::string_view name, std::string_view help,
                    Labels labels) {
  std::string key = renderKey(name, labels);
  auto it = map.find(key);
  if (it == map.end()) {
    Registered<Metric> entry;
    entry.name = std::string(name);
    entry.labels = std::move(labels);
    entry.help = std::string(help);
    entry.metric = std::unique_ptr<Metric>(new Metric());
    it = map.emplace(std::move(key), std::move(entry)).first;
  } else if (it->second.help.empty() && !help.empty()) {
    it->second.help = std::string(help);
  }
  return *it->second.metric;
}

} // namespace

Counter &Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return createOrGet(i.counters, name, help, std::move(labels));
}

Gauge &Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return createOrGet(i.gauges, name, help, std::move(labels));
}

Histogram &Registry::histogram(std::string_view name, std::string_view help,
                               Labels labels) {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return createOrGet(i.histograms, name, help, std::move(labels));
}

Snapshot Registry::snapshot() const {
  Impl &i = impl();
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(i.mutex);
    out.uptimeMs = std::chrono::duration<double, std::milli>(
                       telemetry::Clock::now() - i.epoch)
                       .count();
    for (const auto &[key, entry] : i.counters) {
      CounterSnapshot c{entry.name, entry.labels, entry.help,
                        entry.metric->value()};
      if (entry.name != kStatName)
        out.counters.push_back(std::move(c));
      else if (c.value != 0)
        out.stats.push_back(std::move(c));
    }
    for (const auto &[key, entry] : i.gauges)
      out.gauges.push_back(
          {entry.name, entry.labels, entry.help, entry.metric->value()});
    for (const auto &[key, entry] : i.histograms)
      out.histograms.push_back(
          {entry.name, entry.labels, entry.help, entry.metric->merged()});
  }
  return out;
}

void Registry::resetForTest() {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  i.epoch = telemetry::Clock::now();
  for (auto &[key, entry] : i.counters)
    entry.metric->reset();
  for (auto &[key, entry] : i.gauges)
    entry.metric->reset();
  for (auto &[key, entry] : i.histograms)
    entry.metric->reset();
}

// --- Exporters --------------------------------------------------------

namespace {

void appendLabelsJson(std::ostringstream &os, const Labels &labels) {
  os << "\"labels\": {";
  for (size_t i = 0; i < labels.size(); ++i)
    os << (i ? ", " : "") << "\"" << json::escape(labels[i].first)
       << "\": \"" << json::escape(labels[i].second) << "\"";
  os << "}";
}

} // namespace

std::string Snapshot::json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mha.metrics.v1\",\n";
  os << "  \"uptime_ms\": " << json::number(uptimeMs) << ",\n";
  os << "  \"counters\": [";
  for (size_t i = 0; i < counters.size(); ++i) {
    const CounterSnapshot &c = counters[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << json::escape(c.name) << "\", ";
    appendLabelsJson(os, c.labels);
    os << ", \"value\": " << c.value << "}";
  }
  os << "\n  ],\n  \"gauges\": [";
  for (size_t i = 0; i < gauges.size(); ++i) {
    const GaugeSnapshot &g = gauges[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << json::escape(g.name) << "\", ";
    appendLabelsJson(os, g.labels);
    os << ", \"value\": " << g.value << "}";
  }
  os << "\n  ],\n  \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot &h = histograms[i];
    const Histogram::Merged &m = h.merged;
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << json::escape(h.name) << "\", ";
    appendLabelsJson(os, h.labels);
    os << ", \"count\": " << m.count << ", \"sum\": " << m.sum
       << ", \"min\": " << m.min << ", \"max\": " << m.max
       << ", \"mean\": " << json::number(m.mean())
       << ", \"p50\": " << json::number(m.percentile(50))
       << ", \"p90\": " << json::number(m.percentile(90))
       << ", \"p99\": " << json::number(m.percentile(99))
       << ", \"buckets\": [";
    bool first = true;
    for (int b = 0; b < kBuckets; ++b) {
      if (m.buckets[b] == 0)
        continue;
      os << (first ? "" : ", ") << "{\"le\": " << bucketUpperBound(b)
         << ", \"count\": " << m.buckets[b] << "}";
      first = false;
    }
    os << "]}";
  }
  os << "\n  ],\n  \"stats\": [";
  for (size_t i = 0; i < stats.size(); ++i) {
    const CounterSnapshot &s = stats[i];
    os << (i ? ",\n    " : "\n    ") << "{\"group\": \""
       << json::escape(s.labels[0].second) << "\", \"name\": \""
       << json::escape(s.labels[1].second) << "\", \"value\": " << s.value
       << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string Snapshot::prometheus() const {
  std::ostringstream os;
  auto sampleName = [](const std::string &name, const Labels &labels,
                       const char *suffix = "",
                       const Labels &extra = {}) {
    std::string out = name;
    out += suffix;
    Labels all = labels;
    all.insert(all.end(), extra.begin(), extra.end());
    out += all.empty() ? "" : renderKey("", all);
    return out;
  };
  std::string lastTyped;
  auto typeLine = [&](const std::string &name, const char *type,
                      const std::string &help) {
    if (name == lastTyped)
      return; // one TYPE/HELP line per metric family
    lastTyped = name;
    if (!help.empty())
      os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
  };
  for (const CounterSnapshot &c : counters) {
    typeLine(c.name, "counter", c.help);
    os << sampleName(c.name, c.labels) << " " << c.value << "\n";
  }
  lastTyped.clear();
  for (const GaugeSnapshot &g : gauges) {
    typeLine(g.name, "gauge", g.help);
    os << sampleName(g.name, g.labels) << " " << g.value << "\n";
  }
  lastTyped.clear();
  for (const HistogramSnapshot &h : histograms) {
    typeLine(h.name, "histogram", h.help);
    const Histogram::Merged &m = h.merged;
    int64_t cumulative = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (m.buckets[b] == 0)
        continue;
      cumulative += m.buckets[b];
      os << sampleName(h.name, h.labels, "_bucket",
                       {{"le", strfmt("%lld", static_cast<long long>(
                                                  bucketUpperBound(b)))}})
         << " " << cumulative << "\n";
    }
    os << sampleName(h.name, h.labels, "_bucket", {{"le", "+Inf"}}) << " "
       << m.count << "\n";
    os << sampleName(h.name, h.labels, "_sum") << " " << m.sum << "\n";
    os << sampleName(h.name, h.labels, "_count") << " " << m.count << "\n";
  }
  if (!stats.empty()) {
    os << "# TYPE mha_stat counter\n";
    for (const CounterSnapshot &s : stats)
      os << sampleName(s.name, s.labels) << " " << s.value << "\n";
  }
  return os.str();
}

bool Registry::writeJsonFile(const std::string &path,
                             std::string *error) const {
  return json::writeFile(path, snapshot().json(), error);
}

bool Registry::writePrometheusFile(const std::string &path,
                                   std::string *error) const {
  return writeTextFile(path, snapshot().prometheus(), error);
}

Counter &statistic(std::string_view group, std::string_view name,
                   std::string_view description) {
  return Registry::global().counter(
      kStatName, description,
      {{"group", std::string(group)}, {"name", std::string(name)}});
}

std::string statisticsReport() {
  Snapshot snap = Registry::global().snapshot();
  if (snap.stats.empty())
    return "";
  std::ostringstream os;
  os << "=== statistics ===\n";
  for (const CounterSnapshot &s : snap.stats)
    os << strfmt("%10lld %s.%s - %s\n", static_cast<long long>(s.value),
                 s.labels[0].second.c_str(), s.labels[1].second.c_str(),
                 s.help.c_str());
  return os.str();
}

void recordPassDuration(std::string_view pipeline, std::string_view pass,
                        int64_t us, bool changed) {
  if (!enabled())
    return;
  Registry::global()
      .histogram("mha_pass_duration_us", "per-pass execution time",
                 {{"pipeline", std::string(pipeline)},
                  {"pass", std::string(pass)},
                  {"changed", changed ? "true" : "false"}})
      .recordAlways(us);
}

std::string passTimesTable() {
  struct Row {
    std::string pipeline, pass;
    int64_t runs = 0, changed = 0, totalUs = 0;
  };
  // One row per (pipeline, pass), merging its changed="false"/"true"
  // series.
  std::vector<Row> rows;
  int64_t grandUs = 0;
  for (const HistogramSnapshot &h : Registry::global().snapshot().histograms) {
    if (h.name != "mha_pass_duration_us" || h.merged.count == 0)
      continue;
    const std::string &pipeline = h.labels[0].second;
    const std::string &pass = h.labels[1].second;
    auto it = std::find_if(rows.begin(), rows.end(), [&](const Row &row) {
      return row.pipeline == pipeline && row.pass == pass;
    });
    Row &row = it != rows.end() ? *it : rows.emplace_back(Row{pipeline, pass});
    row.runs += h.merged.count;
    row.changed += h.labels[2].second == "true" ? h.merged.count : 0;
    row.totalUs += h.merged.sum;
    grandUs += h.merged.sum;
  }
  if (rows.empty())
    return "";
  std::stable_sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
    return a.totalUs > b.totalUs;
  });
  double grandMs = double(grandUs) / 1000.0;
  std::ostringstream os;
  os << "=== pass execution timing (aggregated over "
     << strfmt("%zu", rows.size()) << " passes) ===\n";
  os << strfmt("%-10s %-28s %6s %8s %10s %7s\n", "pipeline", "pass", "runs",
               "changed", "total-ms", "%");
  for (const Row &row : rows) {
    double ms = double(row.totalUs) / 1000.0;
    os << strfmt("%-10s %-28s %6lld %8lld %10.3f %6.1f%%\n",
                 row.pipeline.c_str(), row.pass.c_str(),
                 static_cast<long long>(row.runs),
                 static_cast<long long>(row.changed), ms,
                 grandUs > 0 ? 100.0 * ms / grandMs : 0.0);
  }
  os << strfmt("%-10s %-28s %6s %8s %10.3f %6.1f%%\n", "total", "", "", "",
               grandMs, 100.0);
  return os.str();
}

// --- Exporter ---------------------------------------------------------

Exporter::~Exporter() { stop(); }

bool Exporter::start(std::string path, int64_t intervalMs,
                     std::string *error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) {
    if (error)
      *error = "exporter already running";
    return false;
  }
  if (intervalMs < 1) {
    if (error)
      *error = "exporter interval must be >= 1 ms";
    return false;
  }
  // A previous stop() may have left a joined-out thread object behind.
  if (thread_.joinable())
    thread_.join();
  path_ = std::move(path);
  intervalMs_ = intervalMs;
  stopRequested_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopRequested_) {
      if (wake_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                         [this] { return stopRequested_; }))
        break;
      std::string path = path_;
      lock.unlock();
      // Best-effort: a periodic write failure (e.g. disk full) is not
      // fatal; the final stop() write surfaces the error.
      if (Registry::global().writeJsonFile(path))
        writeCount_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
  });
  return true;
}

bool Exporter::stop(std::string *error) {
  std::thread worker;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      // Reap a thread a concurrent stop() already signalled but did not
      // own; harmless when there is none.
      if (thread_.joinable())
        thread_.join();
      return true;
    }
    stopRequested_ = true;
    running_ = false;
    worker = std::move(thread_);
    path = path_;
  }
  wake_.notify_all();
  if (worker.joinable())
    worker.join();
  if (!Registry::global().writeJsonFile(path, error))
    return false;
  writeCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Exporter::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

int64_t Exporter::writeCount() const {
  return writeCount_.load(std::memory_order_relaxed);
}

} // namespace mha::metrics
