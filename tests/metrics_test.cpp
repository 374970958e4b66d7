// Tests for the process-wide metrics layer (support/Metrics) and the
// structured event log (support/EventLog): exact bucket/percentile math,
// concurrent shard merging, snapshot export formats, exporter lifecycle
// races and span correlation in the JSONL log.
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include "flow/Flow.h"
#include "flow/StageCache.h"

#include <gtest/gtest.h>

#include <any>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace mha;

namespace {

/// RAII: enables metric recording for one test and restores the previous
/// registry contents to zero afterwards so tests stay order-independent.
struct MetricsScope {
  MetricsScope() {
    metrics::Registry::global().resetForTest();
    metrics::setEnabled(true);
  }
  ~MetricsScope() {
    metrics::setEnabled(false);
    metrics::Registry::global().resetForTest();
  }
};

std::string slurp(const std::string &path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string tempPath(const char *name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

const json::Value *findSeries(const json::Value &array,
                              const std::string &name) {
  for (const json::Value &entry : array.elements())
    if (const json::Value *n = entry.get("name"); n && n->asString() == name)
      return &entry;
  return nullptr;
}

} // namespace

// --- bucket math -----------------------------------------------------------

TEST(MetricsBuckets, IndexIsExactLog2) {
  EXPECT_EQ(metrics::bucketIndex(-5), 0);
  EXPECT_EQ(metrics::bucketIndex(0), 0);
  EXPECT_EQ(metrics::bucketIndex(1), 1);
  EXPECT_EQ(metrics::bucketIndex(2), 2);
  EXPECT_EQ(metrics::bucketIndex(3), 2);
  EXPECT_EQ(metrics::bucketIndex(4), 3);
  EXPECT_EQ(metrics::bucketIndex(7), 3);
  EXPECT_EQ(metrics::bucketIndex(8), 4);
  EXPECT_EQ(metrics::bucketIndex(1023), 10);
  EXPECT_EQ(metrics::bucketIndex(1024), 11);
  // Beyond the last bucket's range everything clamps to the last bucket.
  EXPECT_EQ(metrics::bucketIndex(INT64_MAX), metrics::kBuckets - 1);
}

TEST(MetricsBuckets, BoundsArePowersOfTwo) {
  EXPECT_EQ(metrics::bucketLowerBound(0), 0);
  EXPECT_EQ(metrics::bucketUpperBound(0), 1);
  EXPECT_EQ(metrics::bucketLowerBound(1), 1);
  EXPECT_EQ(metrics::bucketUpperBound(1), 2);
  EXPECT_EQ(metrics::bucketLowerBound(5), 16);
  EXPECT_EQ(metrics::bucketUpperBound(5), 32);
  // Every sample must land inside its bucket's [lo, hi) range.
  for (int64_t v : {0LL, 1LL, 2LL, 3LL, 100LL, 4096LL, 123456789LL}) {
    int b = metrics::bucketIndex(v);
    EXPECT_GE(v, metrics::bucketLowerBound(b)) << "value " << v;
    EXPECT_LT(v, metrics::bucketUpperBound(b)) << "value " << v;
  }
}

// --- histogram -------------------------------------------------------------

TEST(MetricsHistogram, CountSumMinMaxExact) {
  metrics::Histogram h;
  for (int64_t v : {5LL, 10LL, 3LL, 100LL, 7LL})
    h.recordAlways(v);
  metrics::Histogram::Merged m = h.merged();
  EXPECT_EQ(m.count, 5);
  EXPECT_EQ(m.sum, 125);
  EXPECT_EQ(m.min, 3);
  EXPECT_EQ(m.max, 100);
  EXPECT_DOUBLE_EQ(m.mean(), 25.0);
}

TEST(MetricsHistogram, DegeneratePercentilesClampToExactValue) {
  metrics::Histogram h;
  for (int i = 0; i < 1000; ++i)
    h.recordAlways(42);
  metrics::Histogram::Merged m = h.merged();
  // All samples equal: every percentile must report exactly 42, not an
  // interpolated point inside bucket [32, 64).
  EXPECT_DOUBLE_EQ(m.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(m.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(m.percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(m.percentile(100), 42.0);
}

TEST(MetricsHistogram, PercentileRankPicksCorrectBucket) {
  metrics::Histogram h;
  // 90 samples in bucket [1,2) and 10 in bucket [1024, 2048): p50 must
  // stay in the low bucket, p99 must reach the high one.
  for (int i = 0; i < 90; ++i)
    h.recordAlways(1);
  for (int i = 0; i < 10; ++i)
    h.recordAlways(1500);
  metrics::Histogram::Merged m = h.merged();
  // p50 interpolates inside the containing bucket [1, 2) — the exact
  // point depends on the rank, but it must stay inside that bucket.
  double p50 = m.percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LT(p50, 2.0);
  double p99 = m.percentile(99);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 1500.0); // clamped to max
  EXPECT_EQ(m.min, 1);
  EXPECT_EQ(m.max, 1500);
}

TEST(MetricsHistogram, EmptyHistogramIsAllZero) {
  metrics::Histogram h;
  metrics::Histogram::Merged m = h.merged();
  EXPECT_EQ(m.count, 0);
  EXPECT_EQ(m.sum, 0);
  EXPECT_EQ(m.min, 0);
  EXPECT_EQ(m.max, 0);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.percentile(50), 0.0);
}

TEST(MetricsHistogram, ConcurrentShardMergeMatchesSerialTotals) {
  MetricsScope scope;
  metrics::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.recordAlways(t * kPerThread + i);
    });
  for (std::thread &thread : threads)
    thread.join();
  metrics::Histogram::Merged m = h.merged();
  constexpr int64_t kTotal = int64_t(kThreads) * kPerThread;
  EXPECT_EQ(m.count, kTotal);
  EXPECT_EQ(m.sum, kTotal * (kTotal - 1) / 2); // sum of 0..N-1
  EXPECT_EQ(m.min, 0);
  EXPECT_EQ(m.max, kTotal - 1);
  int64_t bucketTotal = 0;
  for (int b = 0; b < metrics::kBuckets; ++b)
    bucketTotal += m.buckets[b];
  EXPECT_EQ(bucketTotal, kTotal);
}

// --- counters and gauges ---------------------------------------------------

TEST(MetricsCounter, ConcurrentAddsSumExactly) {
  MetricsScope scope;
  metrics::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i)
        c.add(1);
    });
  for (std::thread &thread : threads)
    thread.join();
  EXPECT_EQ(c.value(), int64_t(kThreads) * kPerThread);
}

TEST(MetricsCounter, GatedOffRecordsNothing) {
  metrics::Registry::global().resetForTest();
  metrics::setEnabled(false);
  // The gate only covers timing: counters count with it off.
  metrics::Counter c;
  c.add(100);
  EXPECT_EQ(c.value(), 100);
  metrics::Histogram h;
  h.record(5);
  h.recordMs(5.0); // a span's sample is gated the same way
  EXPECT_EQ(h.merged().count, 0);
}

TEST(MetricsGauge, UnconditionalAcrossGateFlips) {
  metrics::setEnabled(false);
  metrics::Gauge g;
  g.add(3); // gauges must record even with the gate off
  metrics::setEnabled(true);
  g.add(-1);
  metrics::setEnabled(false);
  EXPECT_EQ(g.value(), 2);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
}

// --- registry --------------------------------------------------------------

TEST(MetricsRegistry, CreateOrGetIsIdentityByNameAndLabels) {
  MetricsScope scope;
  metrics::Registry &reg = metrics::Registry::global();
  metrics::Counter &a = reg.counter("test_identity_total", "help");
  metrics::Counter &b = reg.counter("test_identity_total");
  EXPECT_EQ(&a, &b);
  metrics::Counter &withLabel =
      reg.counter("test_identity_total", "", {{"stage", "mlir"}});
  EXPECT_NE(&a, &withLabel);
  metrics::Counter &sameLabel =
      reg.counter("test_identity_total", "", {{"stage", "mlir"}});
  EXPECT_EQ(&withLabel, &sameLabel);
}

TEST(MetricsRegistry, SnapshotJsonValidatesAndCarriesValues) {
  MetricsScope scope;
  metrics::Registry &reg = metrics::Registry::global();
  reg.counter("test_snap_total", "a counter").add(7);
  reg.gauge("test_snap_depth", "a gauge").set(3);
  metrics::Histogram &h = reg.histogram("test_snap_us", "a histogram",
                                        {{"pipeline", "lir"}});
  for (int64_t v : {10LL, 20LL, 30LL})
    h.record(v);

  std::string text = metrics::Registry::global().snapshot().json();
  std::string error;
  ASSERT_TRUE(json::validate(text, &error)) << error;
  std::optional<json::Value> doc = json::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->get("schema")->asString(), "mha.metrics.v1");
  ASSERT_NE(doc->get("uptime_ms"), nullptr);

  const json::Value *counter =
      findSeries(*doc->get("counters"), "test_snap_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->get("value")->asInt(), 7);

  const json::Value *gauge = findSeries(*doc->get("gauges"), "test_snap_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->get("value")->asInt(), 3);

  const json::Value *hist = findSeries(*doc->get("histograms"), "test_snap_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("count")->asInt(), 3);
  EXPECT_EQ(hist->get("sum")->asInt(), 60);
  EXPECT_EQ(hist->get("min")->asInt(), 10);
  EXPECT_EQ(hist->get("max")->asInt(), 30);
  EXPECT_EQ(hist->get("labels")->get("pipeline")->asString(), "lir");
  ASSERT_NE(hist->get("p50"), nullptr);
  ASSERT_NE(hist->get("p99"), nullptr);
  ASSERT_TRUE(hist->get("buckets")->isArray());
  EXPECT_FALSE(hist->get("buckets")->elements().empty());
}

TEST(MetricsRegistry, SnapshotMirrorsTelemetryStatistics) {
  MetricsScope scope;
  metrics::Counter &stat = metrics::statistic(
      "metrics-test", "mirrored-stat", "statistic visible in the snapshot");
  EXPECT_EQ(&stat, &metrics::Registry::global().counter(
                       "mha_stat", "",
                       {{"group", "metrics-test"}, {"name", "mirrored-stat"}}));
  stat.add(5);
  metrics::Snapshot snap = metrics::Registry::global().snapshot();
  bool found = false;
  for (const metrics::CounterSnapshot &s : snap.stats)
    if (s.labels[0].second == "metrics-test" &&
        s.labels[1].second == "mirrored-stat") {
      found = true;
      EXPECT_EQ(s.value, 5);
      EXPECT_EQ(s.help, "statistic visible in the snapshot");
    }
  EXPECT_TRUE(found) << "statistic() counters must appear as snapshot stats";
  // ...and only there: the counters array leaves mha_stat out.
  for (const metrics::CounterSnapshot &c : snap.counters)
    EXPECT_NE(c.name, "mha_stat");
  EXPECT_NE(snap.prometheus().find(
                "mha_stat{group=\"metrics-test\",name=\"mirrored-stat\"} 5\n"),
            std::string::npos);
}

TEST(MetricsRegistry, PrometheusFormatIsWellFormed) {
  MetricsScope scope;
  metrics::Registry &reg = metrics::Registry::global();
  reg.counter("test_prom_total", "counter help").add(2);
  reg.histogram("test_prom_us", "histogram help").record(100);
  std::string text = metrics::Registry::global().snapshot().prometheus();
  EXPECT_NE(text.find("# HELP test_prom_total counter help"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_us histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prom_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_us_sum 100"), std::string::npos);
  EXPECT_NE(text.find("test_prom_us_count 1"), std::string::npos);
}

TEST(MetricsRegistry, RecordPassDurationLandsInLabeledSeries) {
  MetricsScope scope;
  metrics::recordPassDuration("lir", "dce", 250, /*changed=*/true);
  metrics::recordPassDuration("lir", "dce", 750, /*changed=*/true);
  metrics::recordPassDuration("lir", "dce", 5, /*changed=*/false);
  metrics::recordPassDuration("mir", "canonicalize", 10, /*changed=*/false);
  metrics::Histogram &lirDce = metrics::Registry::global().histogram(
      "mha_pass_duration_us", "",
      {{"pipeline", "lir"}, {"pass", "dce"}, {"changed", "true"}});
  EXPECT_EQ(lirDce.merged().count, 2);
  EXPECT_EQ(lirDce.merged().sum, 1000);
  metrics::Histogram &mirCanon = metrics::Registry::global().histogram(
      "mha_pass_duration_us", "",
      {{"pipeline", "mir"}, {"pass", "canonicalize"}, {"changed", "false"}});
  EXPECT_EQ(mirCanon.merged().count, 1);
  // --time-passes merges a pass's changed/unchanged series into one row.
  std::string table = metrics::passTimesTable();
  EXPECT_NE(table.find(strfmt("%-10s %-28s %6lld %8lld %10.3f", "lir", "dce",
                              3LL, 2LL, 1.005)),
            std::string::npos)
      << table;
}

// --- exporter --------------------------------------------------------------

TEST(MetricsExporter, StartStopLifecycle) {
  MetricsScope scope;
  metrics::Registry::global().counter("test_exporter_total").add(1);
  std::string path = tempPath("mha_metrics_exporter_test.json");
  metrics::Exporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.start(path, 1, &error)) << error;
  EXPECT_TRUE(exporter.running());
  // A second start while running must fail without disturbing the first.
  EXPECT_FALSE(exporter.start(path, 1));
  EXPECT_TRUE(exporter.running());
  // Give the periodic loop a chance to write at least once.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(exporter.stop(&error)) << error;
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.writeCount(), 1);
  // Double stop is a no-op.
  EXPECT_TRUE(exporter.stop());

  // The final snapshot on disk must be valid mha.metrics.v1.
  std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  std::optional<json::Value> doc = json::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->get("schema")->asString(), "mha.metrics.v1");
  std::remove(path.c_str());
}

TEST(MetricsExporter, ConcurrentStartsOnlyOneWins) {
  MetricsScope scope;
  std::string path = tempPath("mha_metrics_exporter_race_test.json");
  metrics::Exporter exporter;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      if (exporter.start(path, 1000))
        ++wins;
    });
  for (std::thread &thread : threads)
    thread.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_TRUE(exporter.stop());
  std::remove(path.c_str());
}

TEST(MetricsExporter, WriteJsonFileRejectsBadPath) {
  MetricsScope scope;
  std::string error;
  EXPECT_FALSE(metrics::Registry::global().writeJsonFile(
      "/nonexistent-dir-for-metrics-test/m.json", &error));
  EXPECT_FALSE(error.empty());
}

// --- subsystem instrumentation --------------------------------------------

TEST(MetricsPool, QueueAndLatencyHistogramsPopulate) {
  MetricsScope scope;
  {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
      pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 16);
  }
  metrics::Registry &reg = metrics::Registry::global();
  EXPECT_GE(reg.counter("mha_pool_tasks_total").value(), 16);
  EXPECT_GE(reg.histogram("mha_pool_task_wait_us").merged().count, 16);
  EXPECT_GE(reg.histogram("mha_pool_task_run_us").merged().count, 16);
  // All tasks drained and the pool is destroyed: both gauges are back to 0.
  EXPECT_EQ(reg.gauge("mha_pool_queue_depth").value(), 0);
  EXPECT_EQ(reg.gauge("mha_pool_workers").value(), 0);
}

TEST(MetricsStageCache, HitMissBytesTrackLookups) {
  MetricsScope scope;
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  using Stage = flow::StageCache::Stage;
  const std::string text = "cached mir text";
  std::any value;
  EXPECT_FALSE(cache.lookup(Stage::Mlir, 1, value));
  cache.store(Stage::Mlir, 1, text, int64_t(text.size()));
  EXPECT_TRUE(cache.lookup(Stage::Mlir, 1, value));
  EXPECT_EQ(std::any_cast<std::string>(value), "cached mir text");

  flow::StageCache::Counters stats = cache.counters();
  EXPECT_EQ(stats[Stage::Mlir].hits, 1);
  EXPECT_EQ(stats[Stage::Mlir].misses, 1);
  EXPECT_EQ(stats[Stage::Mlir].bytes,
            int64_t(std::string("cached mir text").size()));
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
  EXPECT_EQ(stats.bytes(), stats[Stage::Mlir].bytes);

  metrics::Registry &reg = metrics::Registry::global();
  EXPECT_EQ(
      reg.counter("mha_stage_cache_hits_total", "", {{"stage", "mlir"}})
          .value(),
      1);
  EXPECT_EQ(
      reg.counter("mha_stage_cache_misses_total", "", {{"stage", "mlir"}})
          .value(),
      1);
  EXPECT_EQ(reg.gauge("mha_stage_cache_bytes", "", {{"stage", "mlir"}}).value(),
            stats[Stage::Mlir].bytes);

  cache.clear();
  EXPECT_EQ(cache.counters().bytes(), 0);
  EXPECT_EQ(reg.gauge("mha_stage_cache_bytes", "", {{"stage", "mlir"}}).value(),
            0);
}

TEST(MetricsStageCache, KeyHistogramTakesOneSamplePerKeyedRow) {
  // The key time is the stage-key span's finish(), one sample per row
  // that computes a key: none with the cache off, three (mlir, bridge,
  // synth) per cached flow, whether the rows miss or hit.
  MetricsScope scope;
  flow::StageCache::global().clear();
  metrics::Histogram &keyUs =
      metrics::Registry::global().histogram("mha_stage_cache_key_us");
  const flow::KernelSpec &fir = *flow::findKernel("fir");
  flow::FlowOptions options;
  ASSERT_TRUE(flow::runAdaptorFlow(fir, {}, options).ok);
  EXPECT_EQ(keyUs.merged().count, 0);
  options.useStageCache = true;
  ASSERT_TRUE(flow::runAdaptorFlow(fir, {}, options).ok);
  EXPECT_EQ(keyUs.merged().count, 3);
  flow::FlowResult warm = flow::runAdaptorFlow(fir, {}, options);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.synthFromCache);
  EXPECT_EQ(keyUs.merged().count, 6);
  flow::StageCache::global().clear();
}

// --- event log -------------------------------------------------------------

TEST(EventLog, LinesAreValidJsonWithLevelsAndFields) {
  std::string path = tempPath("mha_eventlog_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  std::string error;
  ASSERT_TRUE(log.open(path, elog::Level::Debug, &error)) << error;
  elog::info("test", "hello", {{"key", "value with \"quotes\""}});
  elog::debug("test", "debug line");
  elog::warn("test", "warn line");
  elog::error("test", "error line");
  EXPECT_EQ(log.linesWritten(), 4);
  EXPECT_EQ(log.linesDropped(), 0);
  log.close();

  std::istringstream lines(slurp(path));
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    std::optional<json::Value> doc = json::parse(line, &error);
    ASSERT_TRUE(doc) << error << " in line: " << line;
    ASSERT_NE(doc->get("ts_us"), nullptr);
    ASSERT_NE(doc->get("level"), nullptr);
    ASSERT_NE(doc->get("span"), nullptr);
    EXPECT_EQ(doc->get("subsys")->asString(), "test");
    ++parsed;
  }
  EXPECT_EQ(parsed, 4);
  std::remove(path.c_str());
}

TEST(EventLog, MinLevelFiltersBelow) {
  std::string path = tempPath("mha_eventlog_level_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_TRUE(log.open(path, elog::Level::Warn));
  elog::debug("test", "dropped");
  elog::info("test", "dropped");
  elog::warn("test", "kept");
  elog::error("test", "kept");
  EXPECT_EQ(log.linesWritten(), 2);
  log.close();
  std::remove(path.c_str());
}

TEST(EventLog, SpansAreLoggedWithCorrelatedIds) {
  std::string path = tempPath("mha_eventlog_span_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_TRUE(log.open(path, elog::Level::Debug));
  {
    telemetry::Span outer("outer-span", "test");
    elog::info("test", "inside outer");
    { telemetry::Span inner("inner-span", "test"); }
  }
  log.close();

  uint64_t outerId = 0, innerParent = 0, insideSpan = 0;
  std::istringstream lines(slurp(path));
  std::string line;
  while (std::getline(lines, line)) {
    std::optional<json::Value> doc = json::parse(line);
    ASSERT_TRUE(doc) << line;
    const std::string &msg = doc->get("msg")->asString();
    if (msg == "outer-span")
      outerId = static_cast<uint64_t>(*doc->get("span")->asInt());
    else if (msg == "inner-span")
      innerParent = static_cast<uint64_t>(
          std::stoull(doc->get("parent")->asString()));
    else if (msg == "inside outer")
      insideSpan = static_cast<uint64_t>(*doc->get("span")->asInt());
  }
  EXPECT_NE(outerId, 0u);
  // The explicit event inside the outer span carries the outer span's id,
  // and the inner span's parent is the outer span.
  EXPECT_EQ(insideSpan, outerId);
  EXPECT_EQ(innerParent, outerId);
  std::remove(path.c_str());
}

TEST(EventLog, InfoLevelTracksSpanIdsWithoutLoggingSpans) {
  // Above debug no span observer runs: a span finish writes nothing, yet
  // lines logged inside a span still carry its id.
  std::string path = tempPath("mha_eventlog_info_span_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_TRUE(log.open(path, elog::Level::Info));
  uint64_t spanId = 0;
  {
    telemetry::Span span("quiet-span", "test");
    spanId = span.id();
    elog::info("test", "inside");
  }
  EXPECT_EQ(log.linesWritten(), 1);
  log.close();
  EXPECT_NE(spanId, 0u);
  std::optional<json::Value> doc = json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("msg")->asString(), "inside");
  EXPECT_EQ(doc->get("span")->asInt(), static_cast<int64_t>(spanId));
  std::remove(path.c_str());
}

TEST(EventLog, ClosedLogIsNoOp) {
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_FALSE(log.enabled());
  elog::info("test", "goes nowhere"); // must not crash or write
}

TEST(EventLog, ReopenFailsWhileOpen) {
  std::string path = tempPath("mha_eventlog_reopen_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_TRUE(log.open(path, elog::Level::Info));
  std::string error;
  EXPECT_FALSE(log.open(path, elog::Level::Info, &error));
  EXPECT_FALSE(error.empty());
  log.close();
  log.close(); // idempotent
  std::remove(path.c_str());
}

TEST(EventLog, ConcurrentWritersProduceOnlyValidLines) {
  std::string path = tempPath("mha_eventlog_concurrent_test.jsonl");
  elog::EventLog &log = elog::EventLog::global();
  ASSERT_TRUE(log.open(path, elog::Level::Debug));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        elog::info("test", "concurrent",
                   {{"thread", std::to_string(t)}, {"i", std::to_string(i)}});
    });
  for (std::thread &thread : threads)
    thread.join();
  EXPECT_EQ(log.linesWritten(), kThreads * kPerThread);
  EXPECT_EQ(log.linesDropped(), 0);
  log.close();

  std::istringstream lines(slurp(path));
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(json::parse(line)) << "corrupt line: " << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, kThreads * kPerThread);
  std::remove(path.c_str());
}

// --- level parsing ---------------------------------------------------------

TEST(EventLog, ParseLevelIsStrict) {
  EXPECT_EQ(elog::parseLevel("debug"), elog::Level::Debug);
  EXPECT_EQ(elog::parseLevel("info"), elog::Level::Info);
  EXPECT_EQ(elog::parseLevel("warn"), elog::Level::Warn);
  EXPECT_EQ(elog::parseLevel("error"), elog::Level::Error);
  EXPECT_FALSE(elog::parseLevel("INFO").has_value());
  EXPECT_FALSE(elog::parseLevel("garbage").has_value());
  EXPECT_FALSE(elog::parseLevel("").has_value());
}
