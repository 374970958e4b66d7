// Workloads.h - what every perfbench workload shares: options, the run
// context, the metric catalogue and the correctness gate.
#pragma once

#include "Inputs.h"
#include "Replay.h"
#include "Stats.h"
#include "Trace.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Exit right after set-up (run.py times set-up in several processes).
  bool setupOnly = false;
  /// Directory for the serve socket and the trace file (relative paths
  /// keep the socket path short).
  std::string workDir = ".";
};

/// One metric's name and unit.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics the program prints in an untraced run, for every
/// workload (run.py adds setup_s, which it measures across processes).
const std::vector<MetricSpec> &endToEndMetrics();

/// The per-layer metrics a traced run prints, for every workload; a layer
/// a workload does not exercise reads 0.
const std::vector<MetricSpec> &perLayerMetrics();

/// The adaptor pass names that get their own adaptor.pass_ms.<name>
/// metric; any other pass is summed into adaptor.pass_ms.other.
const std::vector<std::string> &trackedAdaptorPasses();

class Context {
public:
  explicit Context(Options options);

  const Options &options() const { return options_; }
  Recorder &recorder() { return recorder_; }
  MetricTable &metrics() { return metrics_; }

  /// Signals the end of set-up to run.py (one stdout line, flushed).
  /// Returns false when the run should stop here (set-up-only mode).
  bool ready();

  /// Counts `ops` attempted ops; failures are added with fail().
  void attempted(int64_t ops) { attempted_ += ops; }
  /// Records a failure of `ops` ops (a wrong output counts as failed).
  void fail(int64_t ops, const std::string &why);

  /// A human-readable report line ("# ..."), printed before the result.
  void note(const std::string &line);

  /// Peak resident set of this process so far, MiB.
  static double peakRssMb();

  /// Fills every per-layer metric from the recorder's spans and counts
  /// (zeros for layers the run did not exercise). Workload-specific
  /// per-layer values are set afterwards and overwrite these.
  void fillLayerMetrics();

  /// Sets the metrics every untraced run reports. `opMs`, `p50`, `opTail`
  /// and `points` are taken over the ops of the run's quiet windows
  /// (quietWindows()), whose length is the time base of the rates. `p50`
  /// and `opTail` are the op_ms_p50 and op_ms_tail the workload computed
  /// (see geomeanOfMedians and tail()).
  void setOpMetrics(const std::vector<double> &opMs, double p50,
                    const Tail &opTail, const QuietWindows &quiet,
                    double points,
                    const std::vector<double> &qorLatency,
                    const std::vector<double> &qorLut, double peakRss);

  /// Sets trace.* from untraced and traced op samples.
  void setTraceOverhead(const std::vector<double> &untracedMs,
                        const std::vector<double> &tracedMs);

  /// Prints the notes and the result line; returns the exit code.
  int finish();

private:
  Options options_;
  Recorder recorder_;
  MetricTable metrics_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex mutex_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// Formats a tail for a note: "<value> ms at p<pct> over <n> samples".
std::string describeTail(const Tail &t, const char *unit);

/// Runs `work(i)` for i in [0, n) on up to `threads` threads.
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &work);

/// Top latency (cycles) and LUTs of an accepted flow result.
struct Qor {
  double latency = 0;
  double lut = 0;
};
Qor qorOf(const mha::flow::FlowResult &result);

/// Correctness gate for one design point, outside any timed region: runs
/// the real flow, compares its report with `expectedJson` (skipped when
/// empty), co-simulates it against the host reference and, in a traced
/// run, replays it layer by layer and compares that report too. Returns
/// an empty string on success, else what went wrong. `result` receives
/// the flow result (for QoR).
std::string checkPoint(Context &ctx, const DesignPoint &point,
                       const std::string &expectedJson,
                       mha::flow::FlowResult &result);

int runCompileDefault(Context &ctx);
int runCompileUnrolled(Context &ctx);
int runServeMix(Context &ctx);
int runDseSearch(Context &ctx);

} // namespace perfbench
