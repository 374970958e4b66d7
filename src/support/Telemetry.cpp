#include "support/Telemetry.h"

#include "support/Json.h"

#include <sstream>

namespace mha::telemetry {

namespace {

// The calling thread's lane. -1 = not yet assigned; an auto lane is
// claimed on first use so unnamed threads still get a stable id.
thread_local int tlsLane = -1;

// --- Span-id tracking -------------------------------------------------

std::atomic<bool> gSpanTracking{false};
std::atomic<uint64_t> gNextSpanId{1};
thread_local uint64_t tlsCurrentSpan = 0;

std::atomic<SpanObserver> gSpanObserver{nullptr};

} // namespace

uint64_t currentSpanId() { return tlsCurrentSpan; }

bool spanTrackingEnabled() {
  return gSpanTracking.load(std::memory_order_relaxed);
}

void setSpanTracking(bool on) {
  gSpanTracking.store(on, std::memory_order_relaxed);
}

void setSpanObserver(SpanObserver observer) {
  gSpanObserver.store(observer, std::memory_order_release);
}

namespace detail {

uint64_t beginSpan(uint64_t &parentOut) {
  uint64_t id = gNextSpanId.fetch_add(1, std::memory_order_relaxed);
  parentOut = tlsCurrentSpan;
  tlsCurrentSpan = id;
  return id;
}

void endSpan(uint64_t id, uint64_t parent, std::string_view name,
             std::string_view category, double ms) {
  // Spans are RAII so per-thread ends are LIFO; an early finish() with a
  // live inner span briefly rewinds past it, which the inner span's own
  // end repairs. Correlation is best-effort, not a parent ledger.
  tlsCurrentSpan = parent;
  if (SpanObserver observer = gSpanObserver.load(std::memory_order_acquire))
    observer(SpanRecord{id, parent, name, category, ms});
}

} // namespace detail

Tracer &Tracer::global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::currentLane() {
  if (tlsLane < 0)
    tlsLane = nextAutoLane_.fetch_add(1, std::memory_order_relaxed);
  return tlsLane;
}

void Tracer::setThreadLane(int lane, std::string name) {
  tlsLane = lane;
  if (name.empty())
    return;
  Tracer &tracer = global();
  std::lock_guard<std::mutex> lock(tracer.mutex_);
  for (auto &entry : tracer.laneNames_)
    if (entry.first == lane) {
      entry.second = std::move(name);
      return;
    }
  tracer.laneNames_.emplace_back(lane, std::move(name));
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  laneNames_.clear();
  epoch_ = Clock::now();
}

void Tracer::recordSpan(std::string name, std::string category,
                        Clock::time_point start, Clock::time_point end,
                        SpanArgs args) {
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'X';
  event.lane = currentLane();
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mutex_);
  event.startUs = usSinceEpoch(start);
  event.durUs =
      std::chrono::duration<double, std::micro>(end - start).count();
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string name, std::string category) {
  if (!enabled())
    return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'i';
  event.lane = currentLane();
  std::lock_guard<std::mutex> lock(mutex_);
  event.startUs = usSinceEpoch(Clock::now());
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string Tracer::chromeTraceJson() const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> laneNames;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
    laneNames = laneNames_;
  }
  std::ostringstream os;
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto comma = [&] {
    if (!first)
      os << ",\n";
    first = false;
  };
  for (const auto &[lane, name] : laneNames) {
    comma();
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << json::escape(name) << "\"}}";
  }
  for (const TraceEvent &event : events) {
    comma();
    os << "{\"ph\": \"" << event.phase << "\", \"pid\": 1, \"tid\": "
       << event.lane << ", \"ts\": " << json::number(event.startUs, 3);
    if (event.phase == 'X')
      os << ", \"dur\": " << json::number(event.durUs, 3);
    if (event.phase == 'i')
      os << ", \"s\": \"t\"";
    os << ", \"name\": \"" << json::escape(event.name) << "\", \"cat\": \""
       << json::escape(event.category) << "\"";
    if (!event.args.empty()) {
      os << ", \"args\": {";
      for (size_t i = 0; i < event.args.size(); ++i)
        os << (i ? ", " : "") << "\"" << json::escape(event.args[i].first)
           << "\": \"" << json::escape(event.args[i].second) << "\"";
      os << "}";
    }
    os << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

} // namespace mha::telemetry
