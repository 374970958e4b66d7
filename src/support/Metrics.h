// Metrics.h - process-wide metrics: counters, gauges, log2 histograms.
//
// The quantitative sibling of Telemetry's event stream: where a trace
// answers "what happened when", the metrics registry answers "how many,
// how fast, at which percentile" — the signals a long-running compile
// service needs for admission control and SLO reporting. It is the one
// counting mechanism and the one pass-time source in the process.
//
// Three metric kinds, all registered by name (plus optional Prometheus-
// style labels) in a process-wide Registry:
//
//  * Counter   - monotonically increasing int64 (tasks executed, bytes
//                stored). Sharded: each recording thread owns one of
//                kShards cache-line-padded relaxed atomics; value() sums.
//                Always counts: a sharded relaxed add is cheap enough
//                that no gate is worth its branch.
//  * Gauge     - a settable level (queue depth, cached bytes). One atomic;
//                set/add are unconditional so paired add(+1)/add(-1)
//                callers stay balanced across enable/disable flips.
//  * Histogram - fixed log2 buckets over non-negative int64 samples
//                (microseconds by convention). Per-thread shards with
//                relaxed atomics on the hot path; shards are merged only
//                at snapshot time, so record() never takes a lock.
//
// LLVM-style statistics are counters too: statistic(group, name, desc)
// registers `mha_stat{group=...,name=...}`, and `--stats` renders the
// non-zero ones from a snapshot (statisticsReport()).
//
// Histograms are gated on a single process-wide relaxed atomic
// (metrics::enabled()): with metrics off, Histogram::record is one
// relaxed load and a branch — the ≤2% overhead budget
// (bench/metrics_overhead) is measured with the gate *on*. The registry
// owns no clock: a latency histogram takes its sample from the
// telemetry::Span around the same work (Histogram::recordMs), so a trace
// and a histogram never time one interval twice. Both pass managers feed
// recordPassDuration() from their pass spans; `--time-passes` turns the
// gate on and renders passTimesTable() from that histogram.
//
// Two exporters render a snapshot: json() (schema "mha.metrics.v1",
// validated via support/Json before any write) and prometheus() (text
// exposition format). Exporter runs a background thread that rewrites the
// JSON snapshot every interval (--metrics-out=<path>
// --metrics-interval=<ms> on the tools).
#pragma once

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace mha::metrics {

/// Label set rendered Prometheus-style: {pipeline="lir",pass="dce"}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Process-wide gate (relaxed atomic) for histograms.
/// Off by default: cold binaries pay one load+branch per record site and
/// nothing else. Counters and gauges ignore it.
bool enabled();
void setEnabled(bool on);

/// Shard count for counters and histograms (power of two). Each thread
/// hashes to a stable shard; false sharing is avoided by cache-line
/// padding, and contention only appears when > kShards threads record
/// into the same metric simultaneously.
inline constexpr int kShards = 16;

/// Histogram bucket count. Bucket 0 holds value == 0; bucket i >= 1 holds
/// [2^(i-1), 2^i). 40 buckets cover up to 2^38 us ≈ 76 hours of latency.
inline constexpr int kBuckets = 40;

/// Maps a sample to its bucket. Negative samples clamp to bucket 0;
/// samples beyond the last bucket's range clamp to the last bucket.
int bucketIndex(int64_t value);

/// Inclusive lower bound of `bucket` (0 for bucket 0, else 2^(bucket-1)).
int64_t bucketLowerBound(int bucket);

/// Exclusive upper bound of `bucket` (1 for bucket 0, else 2^bucket).
int64_t bucketUpperBound(int bucket);

namespace detail {
/// The calling thread's stable shard index in [0, kShards).
int shardIndex();

struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

struct alignas(64) HistogramShard {
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{INT64_MAX};
  std::atomic<int64_t> max{INT64_MIN};
  std::atomic<int64_t> buckets[kBuckets]{};
};
} // namespace detail

/// Monotonically increasing sharded counter.
class Counter {
public:
  void add(int64_t n) {
    shards_[detail::shardIndex()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  Counter &operator++() {
    add(1);
    return *this;
  }

  /// Sum across shards (snapshot-consistent enough for reporting; each
  /// shard is read with a relaxed load).
  int64_t value() const;

  /// Zeroes every shard (concurrent adds may survive).
  void reset();

  Counter() = default;
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

private:
  detail::CounterShard shards_[kShards];
};

/// A settable level. Unconditional (not gated on enabled()): paired
/// add(+1)/add(-1) call sites must stay balanced even if the recording
/// gate flips between the two calls.
class Gauge {
public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

  Gauge() = default;
  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket log2 histogram with per-thread shards.
class Histogram {
public:
  void record(int64_t value) {
    if (!enabled())
      return;
    recordAlways(value);
  }

  /// Records a Span's finish() milliseconds as llround(ms * 1000)
  /// microseconds, the rounding every span-fed histogram shares with
  /// recordPassDuration. Gated like record().
  void recordMs(double ms) {
    if (enabled())
      recordAlways(std::llround(ms * 1000.0));
  }

  /// Records regardless of the process gate (tests and call sites that
  /// manage their own gating).
  void recordAlways(int64_t value);

  /// Zeroes every shard (tests only).
  void reset();

  /// Merged view of one histogram (also the per-histogram slice of a
  /// Registry snapshot).
  struct Merged {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0; // 0 when count == 0
    int64_t max = 0;
    int64_t buckets[kBuckets] = {};

    double mean() const { return count ? double(sum) / double(count) : 0.0; }

    /// Nearest-rank percentile with linear interpolation inside the
    /// containing bucket, clamped to [min, max] so degenerate
    /// distributions (all samples equal) report exactly. p in [0, 100].
    /// Formula: rank = ceil(p/100 * count); find the first bucket whose
    /// cumulative count reaches rank; interpolate
    ///   lo + (hi - lo) * (rank - cumulativeBefore) / bucketCount
    /// with [lo, hi) the bucket's bounds.
    double percentile(double p) const;
  };
  Merged merged() const;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

private:
  detail::HistogramShard shards_[kShards];
};

/// One metric's identity and merged value inside a snapshot.
struct CounterSnapshot {
  std::string name;
  Labels labels;
  std::string help;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  std::string help;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::string help;
  Histogram::Merged merged;
};

/// Point-in-time merged view of every registered metric, ordered by
/// (name, rendered labels) so exports are deterministic.
struct Snapshot {
  double uptimeMs = 0;
  std::vector<CounterSnapshot> counters; // every counter but mha_stat
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
  /// The non-zero statistic() counters, ordered by (group, name); help
  /// holds the description.
  std::vector<CounterSnapshot> stats;

  /// Schema "mha.metrics.v1". Histograms carry count/sum/min/max/mean,
  /// p50/p90/p99, and the non-empty buckets as {le, count} pairs
  /// (le = exclusive upper bound).
  std::string json() const;

  /// Prometheus text exposition format: counters/gauges as single
  /// samples, histograms as cumulative _bucket{le=...}/_sum/_count
  /// series, statistics as mha_stat{group=,name=} samples.
  std::string prometheus() const;
};

/// The process-wide metric registry. Metric objects are created on first
/// use, never destroyed, and safe to cache by reference — hot paths
/// resolve their metrics once (static local) and record lock-free.
class Registry {
public:
  static Registry &global();

  /// Create-or-get by (name, labels). The help string is recorded on
  /// first creation; later lookups may pass "".
  Counter &counter(std::string_view name, std::string_view help = "",
                   Labels labels = {});
  Gauge &gauge(std::string_view name, std::string_view help = "",
               Labels labels = {});
  Histogram &histogram(std::string_view name, std::string_view help = "",
                       Labels labels = {});

  /// Merges every shard of every metric.
  Snapshot snapshot() const;

  /// Writes snapshot().json() to `path` through json::writeFile. Returns
  /// false and fills `*error` on malformed JSON (internal bug) or I/O
  /// failure.
  bool writeJsonFile(const std::string &path,
                     std::string *error = nullptr) const;

  /// Writes snapshot().prometheus() (text format, not validated).
  bool writePrometheusFile(const std::string &path,
                           std::string *error = nullptr) const;

  /// Zeroes every registered metric and restarts the uptime epoch. Metric
  /// references stay valid (objects are zeroed, not destroyed) — tests
  /// only.
  void resetForTest();

private:
  Registry();
  struct Impl;
  Impl &impl() const;
};

/// LLVM-style named statistic: the counter `mha_stat{group=,name=}` with
/// `description` as its help. Define one per counted event at file scope
/// in the pass that owns it:
///
///   metrics::Counter &numRemoved =
///       metrics::statistic("dce", "removed", "dead instructions removed");
///   ...
///   ++numRemoved;
Counter &statistic(std::string_view group, std::string_view name,
                   std::string_view description);

/// The `--stats` dump: one "%10lld group.name - description" line per
/// non-zero statistic, sorted by (group, name); empty when nothing fired.
std::string statisticsReport();

/// Records one pass run into the per-pass duration histogram
/// `mha_pass_duration_us{pipeline=,pass=,changed=}`. No-op when metrics
/// are disabled (checked before the registry lookup, so the disabled cost
/// is one relaxed load).
void recordPassDuration(std::string_view pipeline, std::string_view pass,
                        int64_t us, bool changed);

/// The `--time-passes` table, aggregated per (pipeline, pass) from the
/// pass-duration histogram and sorted by total time, descending; empty
/// when no pass ran with metrics enabled.
std::string passTimesTable();

/// Background exporter: rewrites the JSON snapshot every `intervalMs`
/// until stop(). start/stop are serialized and idempotent — concurrent
/// callers race safely (second start() fails, second stop() no-ops), and
/// the destructor stops. stop() writes one final snapshot so the file
/// always reflects the complete run.
class Exporter {
public:
  Exporter() = default;
  ~Exporter();

  Exporter(const Exporter &) = delete;
  Exporter &operator=(const Exporter &) = delete;

  /// Spawns the exporter thread. Fails (returns false, fills *error) when
  /// already running or intervalMs < 1.
  bool start(std::string path, int64_t intervalMs,
             std::string *error = nullptr);

  /// Stops the thread (no-op when not running) and writes a final
  /// snapshot. Returns false if the final write failed.
  bool stop(std::string *error = nullptr);

  bool running() const;

  /// Snapshots written so far (periodic + final).
  int64_t writeCount() const;

private:
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::thread thread_;
  bool running_ = false;
  bool stopRequested_ = false;
  std::string path_;
  int64_t intervalMs_ = 0;
  std::atomic<int64_t> writeCount_{0};
};

} // namespace mha::metrics
