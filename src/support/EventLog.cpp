#include "support/EventLog.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <chrono>
#include <fstream>
#include <mutex>

namespace mha::elog {

const char *levelName(Level level) {
  switch (level) {
  case Level::Debug:
    return "debug";
  case Level::Info:
    return "info";
  case Level::Warn:
    return "warn";
  case Level::Error:
    return "error";
  }
  return "?";
}

std::optional<Level> parseLevel(std::string_view text) {
  if (text == "debug")
    return Level::Debug;
  if (text == "info")
    return Level::Info;
  if (text == "warn")
    return Level::Warn;
  if (text == "error")
    return Level::Error;
  return std::nullopt;
}

struct EventLog::Impl {
  std::mutex mutex;
  std::ofstream out;
  int64_t linesWritten = 0;
  int64_t linesDropped = 0;
  // Whether this log turned span tracking on (and so must turn it off):
  // a test or tool that enabled tracking independently keeps it.
  bool ownsSpanTracking = false;
};

EventLog::Impl &EventLog::impl() const {
  static Impl instance;
  return instance;
}

EventLog &EventLog::global() {
  static EventLog instance;
  return instance;
}

namespace {

int64_t unixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

} // namespace

bool EventLog::open(const std::string &path, Level minLevel,
                    std::string *error) {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  if (enabled()) {
    if (error)
      *error = "event log already open";
    return false;
  }
  i.out.open(path, std::ios::binary | std::ios::trunc);
  if (!i.out) {
    if (error)
      *error = "cannot open " + path + " for writing";
    return false;
  }
  i.linesWritten = 0;
  i.linesDropped = 0;
  minLevel_.store(static_cast<int>(minLevel), std::memory_order_relaxed);
  i.ownsSpanTracking = !telemetry::spanTrackingEnabled();
  if (i.ownsSpanTracking)
    telemetry::setSpanTracking(true);
  // Span finishes are logged at debug level only; above it the observer
  // would render three fields per span for log() to drop.
  if (minLevel == Level::Debug)
    telemetry::setSpanObserver([](const telemetry::SpanRecord &record) {
      EventLog::global().log(
          Level::Debug, "span", record.name, record.id,
          {{"category", std::string(record.category)},
           {"ms", strfmt("%.3f", record.ms)},
           {"parent",
            strfmt("%llu", static_cast<unsigned long long>(record.parent))}});
    });
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void EventLog::close() {
  Impl &i = impl();
  // Disable before taking the lock so concurrent log() calls drain fast.
  // Clearing the observer does not wait for a call already in flight;
  // such a call only reaches log(), which drops the line once the log is
  // disabled or its file closed.
  enabled_.store(false, std::memory_order_relaxed);
  telemetry::setSpanObserver(nullptr);
  std::lock_guard<std::mutex> lock(i.mutex);
  if (i.ownsSpanTracking) {
    telemetry::setSpanTracking(false);
    i.ownsSpanTracking = false;
  }
  if (i.out.is_open()) {
    i.out.flush();
    i.out.close();
  }
}

void EventLog::log(Level level, std::string_view subsystem,
                   std::string_view message, const Fields &fields) {
  log(level, subsystem, message, telemetry::currentSpanId(), fields);
}

void EventLog::log(Level level, std::string_view subsystem,
                   std::string_view message, uint64_t spanId,
                   const Fields &fields) {
  if (!enabled() || static_cast<int>(level) <
                        minLevel_.load(std::memory_order_relaxed))
    return;
  std::string line;
  line.reserve(128);
  line += strfmt("{\"ts_us\": %lld, \"level\": \"%s\", \"subsys\": \"",
                 static_cast<long long>(unixMicros()), levelName(level));
  line += json::escape(subsystem);
  line += "\", \"msg\": \"";
  line += json::escape(message);
  line += strfmt("\", \"span\": %llu", static_cast<unsigned long long>(spanId));
  for (const auto &[key, value] : fields) {
    line += ", \"";
    line += json::escape(key);
    line += "\": \"";
    line += json::escape(value);
    line += "\"";
  }
  line += "}";

  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  if (!i.out.is_open())
    return; // raced with close()
  if (!json::validate(line)) {
    ++i.linesDropped; // would corrupt the JSONL stream; drop and count
    return;
  }
  i.out << line << "\n";
  i.out.flush(); // greppable history must survive a crash
  ++i.linesWritten;
}

int64_t EventLog::linesWritten() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.linesWritten;
}

int64_t EventLog::linesDropped() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.linesDropped;
}

} // namespace mha::elog
