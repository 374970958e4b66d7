// perfbench's own tests: metric naming, the tail rule, geomean and ratio
// bases, the quiet-window selection, seeded input generation and the
// serve-mix round structure. Exit 0
// when every check passes.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include "Inputs.h"
#include "Stats.h"
#include "Workloads.h"

#include "mir/Printer.h"

#include <cmath>
#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char *what) {
  if (!ok && ++failures <= 20)
    std::printf("FAIL: %s\n", what);
}

bool near(double a, double b) {
  return std::fabs(a - b) < 1e-9 * (1 + std::fabs(b));
}

void testMetricNames() {
  std::set<std::string> seen;
  auto checkAll = [&](const std::vector<MetricSpec> &metrics) {
    for (const MetricSpec &m : metrics) {
      check(validMetricName(m.name), ("valid metric name: " + m.name).c_str());
      check(seen.insert(m.name).second,
            ("unique metric name: " + m.name).c_str());
      check(!m.unit.empty() && m.unit.size() <= 16, "unit length");
    }
  };
  checkAll(endToEndMetrics());
  checkAll(perLayerMetrics());
  check(validMetricName("setup_s"), "setup_s is valid");
  check(!validMetricName(""), "empty name rejected");
  check(!validMetricName("_x"), "leading underscore rejected");
  check(!validMetricName("a b"), "space rejected");
  check(!validMetricName("fused<dce+cse>"), "angle brackets rejected");
  check(!validMetricName(std::string(65, 'a')), "65 characters rejected");
  check(validMetricName(std::string(64, 'a')), "64 characters accepted");
  check(metricComponent("fused<dce+simplifycfg>") == "fused_dce_simplifycfg",
        "pass label sanitised");
  check(metricComponent("memref-descriptor-elimination") ==
            "memref-descriptor-elimination",
        "dashes kept");
  check(validMetricName("adaptor.pass_ms." +
                        metricComponent("fused<instcombine+cse+dce+"
                                        "simplifycfg+licm+dce>")),
        "longest fused pass name fits");
  MetricTable table;
  bool threw = false;
  try {
    table.set("bad name", 1, "ms");
  } catch (const std::exception &) {
    threw = true;
  }
  check(threw, "MetricTable rejects invalid names");
}

void testTail() {
  for (size_t n = 1; n <= 2000; n += (n < 300 ? 1 : 37)) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i)
      samples.push_back(double((i * 7919) % n)); // a permutation of 0..n-1
    for (double pct : {50.0, 90.0, 99.0, 100.0}) {
      Tail t = tail(samples, pct);
      check(t.samples == n, "tail sample count");
      if (n <= kTailBeyond) {
        check(t.value == double(n - 1) && t.percentile == 100,
              "short series: tail is the maximum");
        continue;
      }
      size_t above = 0;
      for (double s : samples)
        above += s > t.value;
      check(above == t.beyond, "beyond counts the samples above the tail");
      check(t.beyond >= kTailBeyond, "tail leaves ten samples beyond it");
      size_t wanted = size_t(std::ceil(pct * double(n) / 100.0 - 1e-9));
      if (n - wanted >= kTailBeyond)
        check(t.beyond == n - wanted, "tail at the nearest rank");
      else
        check(t.beyond == kTailBeyond, "too few samples: highest percentile "
                                       "with ten beyond");
    }
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i)
    hundred.push_back(i);
  check(tail(hundred, 99).value == 90, "p99 of 100 samples falls back to p90");
  check(tail(hundred, 50).value == 50, "p50 of 1..100 is 50");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i)
    thousand.push_back(i);
  Tail p99 = tail(thousand, 99);
  check(p99.value == 990 && p99.beyond == 10 && near(p99.percentile, 99),
        "p99 of 1000 samples leaves exactly ten beyond");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
  // Per-point medians 2, 8 and 32 (whatever the spread inside each
  // point), geomean 8.
  check(near(geomeanOfMedians({{1, 2, 30}, {8, 7, 9}, {50, 32, 9}}), 8),
        "geomean over points of per-point medians");
  check(near(geomeanOfMedians({{}, {4}}), 4), "empty groups are skipped");
}

void testGeomeanAndRatio() {
  check(near(geomean({1, 100}), 10), "geomean of 1 and 100");
  check(near(geomean({2, 8, 4}), 4), "geomean of 2, 8, 4");
  check(geomean({}) == 0 && geomean({1, 0}) == 0 && geomean({-1, 4}) == 0,
        "geomean of empty or non-positive input is 0");
  check(near(ratio(3, 4), 0.75), "ratio part/base");
  check(ratio(1, 0) == 0, "ratio with a zero base is 0");
}

void testQuietWindows() {
  // Eight 100-ms windows of ten ops each, alternating a group of 1-ms ops
  // and one of 2-ms ops. Every op runs 1.5x slower except in windows 3 and
  // 6. One more op ends in a last, partial window.
  std::vector<TimedOp> ops;
  for (int w = 0; w < 8; ++w) {
    double slow = (w == 3 || w == 6) ? 1.0 : 1.5;
    for (int k = 0; k < 10; ++k)
      ops.push_back({w * 100.0 + 10.0 * (k + 1) - 0.5,
                     (k % 2 ? 2.0 : 1.0) * slow, k % 2 ? "b" : "a"});
  }
  ops.push_back({805, 1, "a"});
  QuietWindows quiet = quietWindows(ops, 100, 0.25);
  check(quiet.windows == 8, "quiet windows: partial last window dropped");
  check(quiet.keptWindows == 2, "quiet windows: a quarter of the windows");
  bool right = quiet.kept.size() == ops.size();
  for (size_t i = 0; right && i < ops.size(); ++i) {
    int w = int(ops[i].endMs / 100);
    right = quiet.kept[i] == (w == 3 || w == 6);
  }
  check(right, "quiet windows: the fast windows are kept, whatever group");
  // Each kept window's ops completed between the previous window's last
  // op end and its own: 100 ms each.
  check(near(quiet.keptSeconds, 0.2), "quiet windows: kept time");

  std::vector<TimedOp> shortRun = {{10, 10, "a"}, {30, 20, "a"}};
  QuietWindows all = quietWindows(shortRun, 100, 0.25);
  check(all.kept == std::vector<bool>{true, true} && near(all.keptSeconds, 0.03),
        "quiet windows: a run shorter than a window keeps every op");
}

std::string loopsText(uint64_t seed) {
  std::string out;
  for (const auto &spec : generateLongLoops(seed)) {
    mha::mir::MContext ctx;
    mha::flow::KernelConfig config;
    out += mha::mir::printModule(spec->build(ctx, config).get());
  }
  return out;
}

std::string streamText(uint64_t seed, int client) {
  ServeStream stream(seed, client);
  std::string out;
  for (int i = 0; i < 200; ++i) {
    mha::serve::Request req = stream.next();
    out += mha::serve::renderCompileRequest(req.id, req) + "\n";
  }
  return out;
}

std::string orderText(uint64_t seed) {
  std::vector<DesignPoint> points = defaultCorpus();
  Rng rng(deriveSeed(seed, 1000));
  shuffle(points, rng);
  std::string out;
  for (const DesignPoint &p : points)
    out += p.key() + "\n";
  return out;
}

void testSeededInputs() {
  check(loopsText(7) == loopsText(7), "long loops: equal seeds, equal inputs");
  check(loopsText(7) != loopsText(8),
        "long loops: seeds differ, inputs differ");
  check(streamText(7, 0) == streamText(7, 0),
        "serve stream: equal seeds, equal requests");
  check(streamText(7, 0) != streamText(8, 0),
        "serve stream: seeds differ, requests differ");
  check(streamText(7, 0) != streamText(7, 1), "clients get their own streams");
  check(orderText(7) == orderText(7), "round order: equal seeds, equal order");
  check(orderText(7) != orderText(8),
        "round order: seeds differ, order differs");

  // Every seed draws the same loop shapes and the same work per shape.
  auto loops = generateLongLoops(123);
  check(loops.size() == longLoopShapes().size(), "one kernel per loop shape");
  for (size_t i = 0; i < loops.size(); ++i)
    check(loops[i]->bufferShapes[1][0] == longLoopShapes()[i].trip,
          "generated kernel has its shape's trip count");

  // The reference mirrors the generated IR: y depends on the seed's
  // coefficients, and equal seeds give equal outputs.
  auto run = [](uint64_t seed) {
    auto specs = generateLongLoops(seed);
    mha::flow::Buffers buffers = mha::flow::makeBuffers(*specs[0]);
    mha::flow::seedBuffers(buffers);
    specs[0]->reference(buffers);
    return buffers[1];
  };
  check(run(5) == run(5), "reference deterministic per seed");
  check(run(5) != run(6), "reference depends on the seed");
}

void testServeRounds() {
  // A round is a cold phase (the batch plus one estimate per kernel) and a
  // warm phase that sends the batch's compile requests again.
  size_t kernels = mha::flow::allKernels().size();
  size_t batch = kernels * ServeStream::kSlotsPerKernel;
  ServeStream stream(7, 0);
  for (int round = 0; round < 3; ++round) {
    std::multiset<std::string> cold, warm;
    size_t estimates = 0;
    for (size_t i = 0; i < batch + kernels; ++i) {
      mha::serve::Request req = stream.next();
      if (req.estimate)
        ++estimates;
      else
        cold.insert(requestKey(req));
    }
    for (size_t i = 0; i < batch; ++i) {
      mha::serve::Request req = stream.next();
      check(!req.estimate, "warm phase sends no estimates");
      warm.insert(requestKey(req));
    }
    check(estimates == kernels, "one estimate per kernel per round");
    check(cold == warm, "warm phase repeats the cold compile requests");
  }
  std::set<std::string> distinct;
  for (const mha::serve::Request &req : ServeStream::warmupBatch())
    distinct.insert(requestKey(req));
  check(distinct.size() == batch, "warm-up batch: one round's distinct points");
}

} // namespace

int main() {
  testMetricNames();
  testTail();
  testGeomeanAndRatio();
  testQuietWindows();
  testSeededInputs();
  testServeRounds();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
