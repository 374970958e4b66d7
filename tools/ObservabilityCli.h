// ObservabilityCli.h - command-line helpers shared by the mha-* tools.
//
// parseNumericFlag() is the tools' one strict integer-flag reader, and
// parseKnobFlag() reads the design-knob flags (--ii=N, --unroll=N,
// --partition=N, --dataflow, --no-directives) from flow::kKnobs.
//
// Every tool but mha-client accepts the same five observability flags:
//
//   --metrics-out=<path>       JSON metrics snapshot (schema mha.metrics.v1)
//                              written at exit, or periodically with
//                              --metrics-interval
//   --metrics-interval=<ms>    rewrite --metrics-out every <ms> from a
//                              background exporter thread (requires
//                              --metrics-out)
//   --metrics-prom=<path>      Prometheus text-format dump written at exit
//   --event-log=<path>         structured JSONL event log (one JSON object
//                              per line, span-correlated)
//   --event-log-level=<level>  debug|info|warn|error (default info)
//
// parseFlag() recognizes and strictly validates the flags (malformed
// values are reported on stderr and refused, through parseNumericFlag
// where the value is a number); Session drives the lifecycle: begin()
// before the work (enables metric recording, opens the log, starts the
// exporter), finish() after it (final snapshot writes; failures make the
// tool exit non-zero). With none of the flags given, both are no-ops and
// the tool's output is byte-identical to a build without this layer.
// writeJsonArtifact() is how the tools write their other JSON files.
#pragma once

#include "flow/Kernels.h"
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <optional>
#include <string>

namespace mha {

/// Strictly parses the value of `--flag=value` (after `prefixLen` bytes)
/// into [min, max]. Unlike atoi, rejects non-numeric input and
/// out-of-range values, with a diagnostic on stderr, instead of silently
/// producing 0.
inline bool parseNumericFlag(const std::string &arg, size_t prefixLen,
                             const char *flag, int64_t min, int64_t max,
                             int64_t &out) {
  std::string value = arg.substr(prefixLen);
  std::optional<int64_t> parsed = parseInt(value);
  if (!parsed || *parsed < min || *parsed > max) {
    std::fprintf(stderr,
                 "invalid value '%s' for %s (expected integer in "
                 "[%lld, %lld])\n",
                 value.c_str(), flag, static_cast<long long>(min),
                 static_cast<long long>(max));
    return false;
  }
  out = *parsed;
  return true;
}

/// Reads one design-knob flag into `config`: --<knob>=N for an integer
/// knob, within the knob's range, and for a boolean knob the flag that
/// flips it from its KernelConfig default (--dataflow, --no-directives).
/// Returns false when `arg` is no knob flag; a malformed value prints a
/// diagnostic and sets `ok = false`.
inline bool parseKnobFlag(const std::string &arg, flow::KernelConfig &config,
                          bool &ok) {
  ok = true;
  const flow::KernelConfig defaults;
  for (const flow::Knob &knob : flow::kKnobs) {
    std::string flag = std::string("--") + knob.name;
    if (knob.isBool()) {
      bool flipped = !(defaults.*knob.boolField);
      if (arg == (flipped ? flag : "--no-" + flag.substr(2))) {
        config.*knob.boolField = flipped;
        return true;
      }
    } else if (startsWith(arg, flag + "=")) {
      ok = parseNumericFlag(arg, flag.size() + 1, flag.c_str(), knob.min,
                            knob.max, config.*knob.intField);
      return true;
    }
  }
  return false;
}

} // namespace mha

namespace mha::obscli {

struct Options {
  std::string metricsJsonPath;
  std::string metricsPromPath;
  int64_t intervalMs = 0; // 0 = snapshot at exit only
  std::string eventLogPath;
  elog::Level eventLogLevel = elog::Level::Info;

  bool metricsRequested() const {
    return !metricsJsonPath.empty() || !metricsPromPath.empty();
  }
};

/// Returns true when `arg` is one of the observability flags (consumed
/// into `opts`). A recognized flag with a malformed value prints a
/// diagnostic and sets `ok = false` — the caller returns its usage error.
inline bool parseFlag(const std::string &arg, Options &opts, bool &ok) {
  ok = true;
  if (startsWith(arg, "--metrics-out=")) {
    opts.metricsJsonPath = arg.substr(14);
    if (opts.metricsJsonPath.empty()) {
      std::fprintf(stderr, "--metrics-out requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--metrics-prom=")) {
    opts.metricsPromPath = arg.substr(15);
    if (opts.metricsPromPath.empty()) {
      std::fprintf(stderr, "--metrics-prom requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--metrics-interval=")) {
    ok = parseNumericFlag(arg, 19, "--metrics-interval", 1, 86400000,
                          opts.intervalMs);
    return true;
  }
  if (startsWith(arg, "--event-log=")) {
    opts.eventLogPath = arg.substr(12);
    if (opts.eventLogPath.empty()) {
      std::fprintf(stderr, "--event-log requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--event-log-level=")) {
    std::string value = arg.substr(18);
    std::optional<elog::Level> level = elog::parseLevel(value);
    if (!level) {
      std::fprintf(stderr,
                   "invalid value '%s' for --event-log-level (expected "
                   "debug|info|warn|error)\n",
                   value.c_str());
      ok = false;
      return true;
    }
    opts.eventLogLevel = *level;
    return true;
  }
  return false;
}

/// Writes one JSON artifact through json::writeFile and reports it on
/// stderr: "<what> written to <path>", or "<what>: <error>" and false, on
/// which the tool exits 1.
inline bool writeJsonArtifact(const char *what, const std::string &path,
                              std::string_view text) {
  std::string error;
  if (!json::writeFile(path, text, &error)) {
    std::fprintf(stderr, "%s: %s\n", what, error.c_str());
    return false;
  }
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return true;
}

/// Observability lifecycle around a tool run. begin() before the work,
/// finish() after; the destructor stops a still-running exporter so early
/// returns cannot leak the thread.
class Session {
public:
  Session() = default;
  ~Session() { exporter_.stop(); }

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Enables metric recording (when a metrics output was requested),
  /// opens the event log and starts the periodic exporter. Returns false
  /// with a diagnostic on stderr for inconsistent flags or an unopenable
  /// log path.
  bool begin(const Options &opts) {
    opts_ = opts;
    if (opts_.intervalMs > 0 && opts_.metricsJsonPath.empty()) {
      std::fprintf(stderr, "--metrics-interval requires --metrics-out\n");
      return false;
    }
    if (opts_.metricsRequested())
      metrics::setEnabled(true);
    std::string error;
    if (!opts_.eventLogPath.empty() &&
        !elog::EventLog::global().open(opts_.eventLogPath,
                                       opts_.eventLogLevel, &error)) {
      std::fprintf(stderr, "event log: %s\n", error.c_str());
      return false;
    }
    if (opts_.intervalMs > 0 &&
        !exporter_.start(opts_.metricsJsonPath, opts_.intervalMs, &error)) {
      std::fprintf(stderr, "metrics exporter: %s\n", error.c_str());
      elog::EventLog::global().close();
      return false;
    }
    return true;
  }

  /// Writes the final snapshots and closes the event log. Returns false
  /// (with diagnostics on stderr) when any write failed — the tool should
  /// exit non-zero so CI never uploads a truncated snapshot silently.
  bool finish() {
    bool ok = true;
    std::string error;
    if (exporter_.running()) {
      if (!exporter_.stop(&error)) {
        std::fprintf(stderr, "metrics: %s\n", error.c_str());
        ok = false;
      }
    } else if (!opts_.metricsJsonPath.empty() &&
               !metrics::Registry::global().writeJsonFile(
                   opts_.metricsJsonPath, &error)) {
      std::fprintf(stderr, "metrics: %s\n", error.c_str());
      ok = false;
    }
    if (!opts_.metricsPromPath.empty() &&
        !metrics::Registry::global().writePrometheusFile(
            opts_.metricsPromPath, &error)) {
      std::fprintf(stderr, "metrics: %s\n", error.c_str());
      ok = false;
    }
    elog::EventLog::global().close();
    return ok;
  }

private:
  Options opts_;
  metrics::Exporter exporter_;
};

} // namespace mha::obscli
