// Telemetry.h - process-wide tracing: spans, lanes and the Chrome trace.
//
// Two coordinated facilities behind one global `Tracer`:
//
//  * Hierarchical spans. A `Span` is an RAII timer for a named region on
//    the calling thread. It *always* measures (two steady_clock reads, the
//    same cost as the hand-rolled timing it replaces — finish() returns
//    the elapsed milliseconds so callers can feed StageTimings etc.), but
//    it only *records* an event when tracing is enabled: one relaxed
//    atomic load decides, so a disabled tracer is near-zero overhead and
//    produces zero allocations or locking on the hot path. Recorded spans
//    become Chrome trace-event "complete" ('X') events; nesting is
//    expressed by time containment within a lane, which RAII scoping
//    guarantees, so chrome://tracing and Perfetto render the span stack
//    with no parent bookkeeping here.
//
//  * Lanes. Every thread records into a lane (the Chrome "tid"). Pool
//    workers claim lane = worker index with a display name ("worker 3");
//    unclaimed threads get stable auto-assigned lanes starting at 1000.
//
// Counting (`--stats`) and pass timing (`--time-passes`) live in the
// metrics registry (support/Metrics.h), not here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mha::telemetry {

using Clock = std::chrono::steady_clock;
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

// --- Span-id tracking -------------------------------------------------
//
// When enabled (the structured event log turns it on), every Span claims
// a process-unique id and pushes itself onto a per-thread stack, so any
// code running inside the span can stamp its output with
// currentSpanId() — the correlation key between event-log lines and the
// span that produced them. Off by default: a disabled process pays one
// relaxed load per Span construction and nothing else.

/// The innermost live tracked span on the calling thread (0 = none or
/// tracking disabled).
uint64_t currentSpanId();

bool spanTrackingEnabled();
void setSpanTracking(bool on);

/// A finished tracked span, delivered to the registered observer.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0; // 0 = top-level on its thread
  std::string_view name;
  std::string_view category;
  double ms = 0;
};

/// Registers the (single) observer called on every tracked span finish,
/// from the finishing thread. Pass nullptr to clear. The observer must be
/// thread-safe; the event log uses this to journal span history.
void setSpanObserver(std::function<void(const SpanRecord &)> observer);

namespace detail {
/// Claims a fresh span id, records the previous innermost id in
/// `parentOut` and makes the new id current. Returns the id.
uint64_t beginSpan(uint64_t &parentOut);
/// Restores `parent` as the thread's current span and notifies the
/// observer (when one is registered).
void endSpan(uint64_t id, uint64_t parent, std::string_view name,
             std::string_view category, double ms);
} // namespace detail

/// One recorded trace event (Chrome trace-event model).
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X'; // 'X' complete span, 'i' instant
  int lane = 0;     // Chrome "tid"
  double startUs = 0; // microseconds since the tracer epoch
  double durUs = 0;   // 'X' only
  SpanArgs args;
};

class Tracer {
public:
  /// The process-wide tracer used by Span, the pass managers, the flow
  /// drivers and the tools.
  static Tracer &global();

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events and lane names and restarts the epoch.
  /// The enable flag is left as it is.
  void reset();

  /// Records a finished span in the calling thread's lane. Normally
  /// reached through Span, not called directly.
  void recordSpan(std::string name, std::string category,
                  Clock::time_point start, Clock::time_point end,
                  SpanArgs args = {});

  /// Records an instant event in the calling thread's lane (a zero-width
  /// marker, e.g. a job failure).
  void instant(std::string name, std::string category);

  /// Claims lane `lane` for the calling thread and, when `name` is
  /// non-empty, sets the lane's display name in the exported trace.
  /// Idempotent; cheap enough to call per task.
  static void setThreadLane(int lane, std::string name = "");

  std::vector<TraceEvent> events() const;

  /// Renders every recorded event as Chrome trace-event JSON:
  /// {"displayTimeUnit":"ms","traceEvents":[...]} with one thread_name
  /// metadata record per named lane. Loadable in chrome://tracing and
  /// Perfetto.
  /// Tools write it with json::writeFile, which validates it first.
  std::string chromeTraceJson() const;

private:
  Tracer() : epoch_(Clock::now()) {}

  double usSinceEpoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  int currentLane();

  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  Clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> laneNames_;
  std::atomic<int> nextAutoLane_{1000};
};

/// RAII span. Measures from construction to finish()/destruction and
/// records into the global tracer when tracing is enabled.
class Span {
public:
  explicit Span(std::string name, std::string category = "default",
                SpanArgs args = {})
      : name_(std::move(name)), category_(std::move(category)),
        args_(std::move(args)) {
    if (spanTrackingEnabled())
      id_ = detail::beginSpan(parent_);
    start_ = Clock::now();
  }
  ~Span() { finish(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Milliseconds since construction (span still running).
  double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Ends the span, records it (when tracing is enabled) and returns the
  /// measured duration in milliseconds. Idempotent: later calls (and the
  /// destructor) return the first measurement.
  double finish() {
    if (done_)
      return ms_;
    done_ = true;
    Clock::time_point end = Clock::now();
    ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
    if (id_)
      detail::endSpan(id_, parent_, name_, category_, ms_);
    Tracer &tracer = Tracer::global();
    if (tracer.enabled())
      tracer.recordSpan(std::move(name_), std::move(category_), start_, end,
                        std::move(args_));
    return ms_;
  }

  /// Attaches an argument known only once the span's work is done (e.g. an
  /// iteration count). Dropped when tracing is off, like the span itself.
  void addArg(std::string key, std::string value) {
    if (!done_ && Tracer::global().enabled())
      args_.emplace_back(std::move(key), std::move(value));
  }

  /// This span's tracked id (0 when span tracking was off at
  /// construction).
  uint64_t id() const { return id_; }

private:
  std::string name_;
  std::string category_;
  SpanArgs args_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
  double ms_ = 0;
  bool done_ = false;
};

} // namespace mha::telemetry
