#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty())
    return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomeanOfMedians(const std::vector<std::vector<double>> &groups) {
  std::vector<double> medians;
  for (const std::vector<double> &group : groups)
    if (!group.empty())
      medians.push_back(median(group));
  return geomean(medians);
}

Tail tail(std::vector<double> samples, double percentile) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty())
    return out;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n <= kTailBeyond) {
    out.value = samples.back();
    out.percentile = 100;
    return out;
  }
  // Nearest rank r (1-based) holds percentile 100*r/n; the highest rank
  // with kTailBeyond samples above it is n - kTailBeyond.
  size_t rank =
      static_cast<size_t>(std::ceil(percentile * double(n) / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n - kTailBeyond);
  out.value = samples[rank - 1];
  out.percentile = 100.0 * double(rank) / double(n);
  out.beyond = n - rank;
  return out;
}

QuietWindows quietWindows(const std::vector<TimedOp> &ops, double windowMs,
                          double share) {
  QuietWindows out;
  double endMs = 0;
  for (const TimedOp &op : ops)
    endMs = std::max(endMs, op.endMs);
  out.windows = static_cast<size_t>(endMs / windowMs);
  std::map<std::string, std::vector<double>> byGroup;
  for (const TimedOp &op : ops)
    byGroup[op.group].push_back(op.ms);
  std::map<std::string, double> groupMedian;
  for (const auto &[group, ms] : byGroup)
    groupMedian[group] = median(ms);
  auto windowOf = [&](const TimedOp &op) {
    return static_cast<size_t>(op.endMs / windowMs);
  };
  std::vector<std::vector<double>> slowness(out.windows);
  for (const TimedOp &op : ops)
    if (windowOf(op) < out.windows)
      slowness[windowOf(op)].push_back(ratio(op.ms, groupMedian[op.group]));
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t w = 0; w < out.windows; ++w)
    if (!slowness[w].empty())
      ranked.push_back({median(slowness[w]), w});
  if (ranked.empty()) { // shorter than one window: every op counts
    out.kept.assign(ops.size(), true);
    out.windows = out.keptWindows = 1;
    out.keptSeconds = endMs / 1000.0;
    return out;
  }
  std::sort(ranked.begin(), ranked.end());
  out.keptWindows = std::clamp<size_t>(
      static_cast<size_t>(std::lround(share * double(ranked.size()))), 1,
      ranked.size());
  std::vector<bool> keep(out.windows, false);
  for (size_t i = 0; i < out.keptWindows; ++i)
    keep[ranked[i].second] = true;
  out.kept.resize(ops.size());
  std::vector<double> lastEnd(out.windows, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t w = windowOf(ops[i]);
    out.kept[i] = w < out.windows && keep[w];
    if (w < out.windows)
      lastEnd[w] = std::max(lastEnd[w], ops[i].endMs);
  }
  // A window's ops completed between the last op end before it and its
  // own last op end.
  double previousEnd = 0, keptMs = 0;
  for (size_t w = 0; w < out.windows; ++w) {
    if (slowness[w].empty())
      continue;
    if (keep[w])
      keptMs += lastEnd[w] - previousEnd;
    previousEnd = lastEnd[w];
  }
  out.keptSeconds = keptMs / 1000.0;
  return out;
}

double geomean(const std::vector<double> &values) {
  if (values.empty())
    return 0;
  double logSum = 0;
  for (double v : values) {
    if (!(v > 0))
      return 0;
    logSum += std::log(v);
  }
  return std::exp(logSum / double(values.size()));
}

double ratio(double part, double base) { return base == 0 ? 0 : part / base; }

namespace {

bool allowedChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

} // namespace

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front()))
    return false;
  return std::all_of(name.begin(), name.end(), allowedChar);
}

std::string metricComponent(std::string_view label) {
  std::string out;
  for (char c : label) {
    if (allowedChar(c) && c != '.')
      out += c;
    else if (!out.empty() && out.back() != '_')
      out += '_';
  }
  while (!out.empty() && out.back() == '_')
    out.pop_back();
  return out;
}

void MetricTable::set(const std::string &name, double value,
                      const std::string &unit) {
  if (!validMetricName(name))
    throw std::invalid_argument("invalid metric name '" + name + "'");
  for (Entry &entry : entries_)
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  entries_.push_back({name, value, unit});
}

double MetricTable::value(const std::string &name) const {
  for (const Entry &entry : entries_)
    if (entry.name == name)
      return entry.value;
  return 0;
}

std::string MetricTable::json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry &e = entries_[i];
    if (i)
      out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + exactNumber(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string exactNumber(double value) {
  if (!std::isfinite(value))
    return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

} // namespace perfbench
