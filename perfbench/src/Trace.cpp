#include "Trace.h"

#include "Stats.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

/// Open spans on this thread (innermost last): id and op, so a child
/// inherits its parent's op when it does not name one.
struct OpenSpan {
  int64_t id;
  int64_t op;
};
thread_local std::vector<OpenSpan> openSpans;

std::string escape(const std::string &s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += c;
  }
  return out;
}

} // namespace

Recorder::Recorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Recorder::Span::Span(Recorder &recorder, std::string name, int64_t op)
    : recorder_(recorder), name_(std::move(name)), op_(op),
      start_(Clock::now()) {
  if (!recorder_.enabled_)
    return;
  {
    std::lock_guard<std::mutex> lock(recorder_.mutex_);
    id_ = recorder_.nextId_++;
  }
  if (!openSpans.empty()) {
    parent_ = openSpans.back().id;
    if (op_ < 0)
      op_ = openSpans.back().op;
  }
  openSpans.push_back({id_, op_});
}

Recorder::Span::~Span() { finish(); }

double Recorder::Span::finish() {
  if (ms_ >= 0)
    return ms_;
  Clock::time_point end = Clock::now();
  ms_ = msBetween(start_, end);
  if (!recorder_.enabled_)
    return ms_;
  // Scopes close innermost first, so this span is on top of the stack.
  if (!openSpans.empty() && openSpans.back().id == id_)
    openSpans.pop_back();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.op = op_;
  record.name = std::move(name_);
  record.startUs = 1000.0 * msBetween(recorder_.origin_, start_);
  record.endUs = 1000.0 * msBetween(recorder_.origin_, end);
  std::lock_guard<std::mutex> lock(recorder_.mutex_);
  recorder_.spans_.push_back(std::move(record));
  return ms_;
}

void Recorder::count(const std::string &name, double delta) {
  if (!enabled_)
    return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += delta;
}

void Recorder::labelOp(int64_t op, const std::string &label) {
  if (!enabled_)
    return;
  std::lock_guard<std::mutex> lock(mutex_);
  opLabels_[op] = label;
}

std::vector<Recorder::SpanRecord> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Recorder::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::map<std::string, Recorder::LayerTime> Recorder::layerTimes() const {
  std::vector<SpanRecord> all = spans();
  // Children of one parent never overlap (same thread, nested scopes), so
  // the covered part of a span is the sum of its direct children.
  std::unordered_map<int64_t, double> childUs;
  for (const SpanRecord &span : all)
    if (span.parent)
      childUs[span.parent] += span.endUs - span.startUs;
  std::map<std::string, LayerTime> out;
  for (const SpanRecord &span : all) {
    LayerTime &layer = out[span.name];
    double us = span.endUs - span.startUs;
    auto it = childUs.find(span.id);
    double covered = it == childUs.end() ? 0 : it->second;
    layer.totalMs += us / 1000.0;
    layer.selfMs += std::max(0.0, us - covered) / 1000.0;
    layer.calls++;
  }
  return out;
}

bool Recorder::writeJson(const std::string &path) const {
  std::ofstream out(path);
  if (!out)
    return false;
  out << "{\"schema\": \"perfbench.trace.v1\", \"spans\": [";
  std::vector<SpanRecord> all = spans();
  std::sort(all.begin(), all.end(),
            [](const SpanRecord &a, const SpanRecord &b) {
              return a.id < b.id;
            });
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord &s = all[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"name\": \"" << escape(s.name)
        << "\", \"start_us\": " << exactNumber(s.startUs)
        << ", \"end_us\": " << exactNumber(s.endUs) << "}";
  }
  out << "\n], \"ops\": {";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto &[op, label] : opLabels_) {
      out << (first ? "" : ", ") << "\"" << op << "\": \"" << escape(label)
          << "\"";
      first = false;
    }
  }
  out << "}, \"counts\": {";
  bool first = true;
  for (const auto &[name, value] : counts()) {
    out << (first ? "" : ", ") << "\"" << escape(name)
        << "\": " << exactNumber(value);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench
