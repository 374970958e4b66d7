// Stats.h - summary statistics and the metric table perfbench prints.
//
// Every timing is summarised as a median plus a "tail": the highest
// percentile that still has at least ten samples beyond it, reported with
// the percentile and the sample count so two runs with different sample
// counts are never compared blindly. Ratios carry their base explicitly.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Minimum number of samples a tail percentile must leave above it.
inline constexpr size_t kTailBeyond = 10;

/// Median of `samples` (mean of the middle pair for even counts; 0 when
/// empty).
double median(std::vector<double> samples);

/// Geometric mean over groups of each group's median: the p50 of a fixed
/// set of design points visited in balanced rounds. Unlike the median over
/// all ops it cannot jump from one point's time to another's when load
/// reorders points whose times differ a lot.
double geomeanOfMedians(const std::vector<std::vector<double>> &groups);

/// A tail percentile of a timing series. The rule is "the highest
/// percentile with at least ten samples beyond it", but at tens of
/// thousands of samples that point measures scheduler hiccups of the
/// machine, not the program. So each workload names the percentile it
/// reports (p90 or p99, picked so a run leaves far more than ten samples
/// beyond it); when a run is too short for that, the percentile drops to
/// the highest one that still leaves kTailBeyond samples beyond it. With
/// kTailBeyond samples or fewer no such percentile exists: `value` is then
/// the maximum and `percentile` is 100.
struct Tail {
  double value = 0;
  double percentile = 0; // nearest-rank percentile of `value`
  size_t samples = 0;    // how many samples the tail was taken over
  size_t beyond = 0;     // samples ranked above `value`
};
Tail tail(std::vector<double> samples, double percentile);

/// One timed op, as quietWindows() sees it.
struct TimedOp {
  double endMs = 0;  // when the op ended, ms into the timed region
  double ms = 0;     // how long it took
  std::string group; // ops of one group do the same work
};

/// Window length and the share of a run's windows the end-to-end metrics
/// are taken over.
inline constexpr double kWindowMs = 500;
inline constexpr double kQuietShare = 0.1;

/// The quietest windows of a run. On a shared host, other tenants' load
/// comes in stretches of a few seconds that slow every op alike (a
/// compile-default flow's median reads about 0.65 ms in a quiet stretch and
/// about 0.9 ms in a slow one), and how much of a run falls in slow
/// stretches changes from run to run. So the timed region is cut into
/// windows of `windowMs`
/// by op end time (a last, partial window is dropped). A window's slowness
/// is the median over its ops of the op's time over its group's median
/// time in the whole run, so a window is not judged by which ops fell in
/// it. The `share` of windows with the lowest slowness (at least one) are
/// kept. A run shorter than one window keeps everything.
struct QuietWindows {
  std::vector<bool> kept; // per op: it ended in a kept window
  size_t windows = 0;     // full windows in the run
  size_t keptWindows = 0;
  /// Time the kept ops took to complete: per kept window, from the last op
  /// end before it to its own last op end, summed (the time base of
  /// ops_per_s, so a rate is not a whole count over whole seconds).
  double keptSeconds = 0;
};
QuietWindows quietWindows(const std::vector<TimedOp> &ops,
                          double windowMs = kWindowMs,
                          double share = kQuietShare);

/// Geometric mean of strictly positive values (0 when empty or when any
/// value is not positive, so a broken input never looks like a result).
double geomean(const std::vector<double> &values);

/// `part / base`, or 0 when the base is 0.
double ratio(double part, double base);

/// True when `name` is a non-empty metric name of at most 64 characters
/// from [A-Za-z0-9_.-] starting with a letter or digit.
bool validMetricName(std::string_view name);

/// Turns an arbitrary label (a pass name such as "fused<dce+cse>") into a
/// valid metric-name component: disallowed characters become '_', runs of
/// them collapse, and leading/trailing '_' are dropped.
std::string metricComponent(std::string_view label);

/// An ordered set of named metrics with units, rendered as the "metrics"
/// object of the result line.
class MetricTable {
public:
  /// Adds or overwrites a metric. Throws std::invalid_argument for a name
  /// validMetricName rejects, so a bad name fails the run loudly.
  void set(const std::string &name, double value, const std::string &unit);

  /// The metric's value (0 when it was never set).
  double value(const std::string &name) const;

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string json() const;

private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Formats a double with enough digits to round-trip (%.17g), mapping
/// non-finite values to 0 so the line stays valid JSON.
std::string exactNumber(double value);

} // namespace perfbench
