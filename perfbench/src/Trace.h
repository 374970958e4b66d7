// Trace.h - the benchmark's own span recorder.
//
// Spans are recorded from perfbench's files, around calls into the
// compiler's public functions; nothing inside the program is touched.
// Each span has a name, start, end, the span that caused it (its parent
// on the same thread) and the op it belongs to. Spans stay in memory and
// are written out once at the end. A disabled recorder still measures
// (Span::finish returns the elapsed time) but records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

class Recorder {
public:
  struct SpanRecord {
    int64_t id = 0;
    int64_t parent = 0; // 0 = root
    int64_t op = 0;     // the op (flow, request, search) this span serves
    std::string name;
    double startUs = 0; // relative to the recorder's creation
    double endUs = 0;
  };

  explicit Recorder(bool enabled);

  Recorder(const Recorder &) = delete;
  Recorder &operator=(const Recorder &) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread. Spans nest by scope: a span opened
  /// while another is open on the same thread records it as its parent.
  class Span {
  public:
    Span(Recorder &recorder, std::string name, int64_t op = -1);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Closes the span (idempotent) and returns its length in ms.
    double finish();

  private:
    Recorder &recorder_;
    std::string name_;
    int64_t id_ = 0;
    int64_t parent_ = 0;
    int64_t op_ = 0;
    Clock::time_point start_;
    double ms_ = -1;
  };

  /// Adds `delta` to a named count (recorded only when enabled).
  void count(const std::string &name, double delta);

  /// Names what op `op` worked on (a design point or request), so a slow
  /// span in the trace file can be traced back to its input.
  void labelOp(int64_t op, const std::string &label);

  /// Snapshot of every closed span, in closing order.
  std::vector<SpanRecord> spans() const;
  std::map<std::string, double> counts() const;

  /// Per span name: summed duration and summed self time (duration minus
  /// the part of it the span's direct children cover), in ms, plus the
  /// number of spans.
  struct LayerTime {
    double totalMs = 0;
    double selfMs = 0;
    int64_t calls = 0;
  };
  std::map<std::string, LayerTime> layerTimes() const;

  /// Writes spans, op labels and counts as JSON (schema
  /// "perfbench.trace.v1").
  bool writeJson(const std::string &path) const;

private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  int64_t nextId_ = 1;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
  std::map<int64_t, std::string> opLabels_;
};

} // namespace perfbench
