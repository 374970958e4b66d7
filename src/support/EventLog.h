// EventLog.h - structured JSONL event log with levels and span
// correlation.
//
// Where Chrome traces need a post-processing UI and stdout scraping needs
// luck, the event log is greppable history: one JSON object per line,
// appended to a file as events happen, so a daemon-style run can be
// tailed, filtered with jq, and correlated with the metrics snapshot.
//
// Each line carries:
//   {"ts_us": <int, microseconds since unix epoch>, "level": "info",
//    "subsys": "flow", "msg": "...", "span": <id>, <extra fields...>}
//
// `span` is the innermost live telemetry::Span's process-unique id on the
// logging thread (0 when none): opening the log turns on span-id tracking
// in support/Telemetry at every level. At debug level the log also
// registers the span observer, so every Span finish is itself logged
// (subsys "span", with category/ms/parent fields) and
// `--event-log-level=debug` yields the full span history inline with the
// explicit events that happened inside each span. Above debug no observer
// is registered and a span finish renders nothing.
//
// The log is process-global (EventLog::global()), thread-safe (one mutex
// around the append), and near-zero when closed: log() is one relaxed
// atomic load and a branch. Lines are rendered through support/Json
// escaping; a line that somehow renders malformed is dropped and counted
// instead of corrupting the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mha::elog {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char *levelName(Level level);

/// Parses "debug" | "info" | "warn" | "error" (exact, lowercase).
std::optional<Level> parseLevel(std::string_view text);

/// Extra structured fields appended to a line, rendered as JSON strings.
using Fields = std::vector<std::pair<std::string, std::string>>;

class EventLog {
public:
  /// The process-wide log every subsystem writes to.
  static EventLog &global();

  /// Opens (truncates) `path` and starts accepting events at or above
  /// `minLevel`. Enables telemetry span-id tracking and, when `minLevel`
  /// is debug, registers the span observer that logs finished spans.
  /// Fails when already open or the file cannot be created.
  bool open(const std::string &path, Level minLevel = Level::Info,
            std::string *error = nullptr);

  /// Flushes, closes, unregisters the span observer and disables span-id
  /// tracking. Idempotent.
  void close();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  Level minLevel() const {
    return static_cast<Level>(minLevel_.load(std::memory_order_relaxed));
  }

  /// Appends one event line (no-op when closed or below minLevel). The
  /// `span` field is the logging thread's current telemetry span id.
  void log(Level level, std::string_view subsystem, std::string_view message,
           const Fields &fields = {});

  /// Same, with an explicit span id — used by the span observer, which
  /// fires after the finished span has already been popped off its thread.
  void log(Level level, std::string_view subsystem, std::string_view message,
           uint64_t spanId, const Fields &fields);

  /// Lines successfully appended since open().
  int64_t linesWritten() const;
  /// Lines dropped because they rendered as malformed JSON (a bug —
  /// tests assert 0).
  int64_t linesDropped() const;

private:
  EventLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int> minLevel_{static_cast<int>(Level::Info)};

  struct Impl;
  Impl &impl() const;
};

/// Convenience forwarders onto EventLog::global().
inline void debug(std::string_view subsys, std::string_view msg,
                  const Fields &fields = {}) {
  EventLog::global().log(Level::Debug, subsys, msg, fields);
}
inline void info(std::string_view subsys, std::string_view msg,
                 const Fields &fields = {}) {
  EventLog::global().log(Level::Info, subsys, msg, fields);
}
inline void warn(std::string_view subsys, std::string_view msg,
                 const Fields &fields = {}) {
  EventLog::global().log(Level::Warn, subsys, msg, fields);
}
inline void error(std::string_view subsys, std::string_view msg,
                  const Fields &fields = {}) {
  EventLog::global().log(Level::Error, subsys, msg, fields);
}

} // namespace mha::elog
