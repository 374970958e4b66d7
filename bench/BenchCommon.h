// BenchCommon.h - shared helpers for the table/figure reproduction benches.
#pragma once

#include "flow/BatchRunner.h"
#include "flow/Flow.h"
#include "support/Json.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mha::bench {

/// Structured output for the benches: `--json <path>` (or `--json=<path>`)
/// writes one document per run, schema "mha.bench.v1", with one row per
/// printed table row so BENCH_*.json perf trajectories can accumulate.
/// The flag is consumed from argv (anything else — e.g. google-benchmark
/// flags — passes through untouched); stdout is never written to, so the
/// human tables stay byte-identical with the flag off. The document goes
/// through json::writeFile, which validates it before it hits disk.
class JsonReport {
public:
  JsonReport(std::string bench, int &argc, char **argv)
      : bench_(std::move(bench)) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc)
        path_ = argv[++i];
      else if (arg.rfind("--json=", 0) == 0)
        path_ = arg.substr(7);
      else
        argv[kept++] = argv[i];
    }
    argc = kept;
  }

  bool enabled() const { return !path_.empty(); }

  /// Starts a new row; field() calls append to the most recent row. Both
  /// are no-ops with the flag off, so call sites stay unconditional.
  void beginRow() {
    if (enabled())
      rows_.emplace_back();
  }
  void field(const char *key, int64_t value) {
    addRaw(key, std::to_string(value));
  }
  void field(const char *key, int value) {
    field(key, static_cast<int64_t>(value));
  }
  void field(const char *key, double value) {
    addRaw(key, json::number(value));
  }
  void field(const char *key, bool value) {
    addRaw(key, value ? "true" : "false");
  }
  void field(const char *key, std::string_view value) {
    addRaw(key, "\"" + json::escape(value) + "\"");
  }
  void field(const char *key, const char *value) {
    field(key, std::string_view(value));
  }

  /// Validates and writes the report (when enabled). Returns `status`, or
  /// 1 when validation or the write fails.
  int finish(int status = 0) const {
    if (!enabled())
      return status;
    std::string text = "{\n  \"schema\": \"mha.bench.v1\",\n  \"bench\": \"" +
                       json::escape(bench_) + "\",\n  \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      text += i ? ",\n    {" : "\n    {";
      for (size_t f = 0; f < rows_[i].size(); ++f) {
        if (f)
          text += ", ";
        text += "\"" + json::escape(rows_[i][f].first) +
                "\": " + rows_[i][f].second;
      }
      text += "}";
    }
    text += "\n  ]\n}\n";
    std::string error;
    if (!json::writeFile(path_, text, &error)) {
      std::fprintf(stderr, "bench json: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench report written to %s\n", path_.c_str());
    return status;
  }

private:
  void addRaw(const char *key, std::string rendered) {
    if (enabled() && !rows_.empty())
      rows_.back().emplace_back(key, std::move(rendered));
  }

  std::string bench_;
  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Parses `--label=NAME`, which tags a bench's JSON rows with the build
/// measured ("current" by default) so two builds' rows can share one
/// BENCH_*.json. Call after JsonReport has consumed `--json`; any other
/// argument prints the usage and returns false.
inline bool parseLabel(int argc, char **argv, const char *bench,
                       std::string &label) {
  label = "current";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--label=", 0) == 0 && arg.size() > 8) {
      label = arg.substr(8);
    } else {
      std::fprintf(stderr,
                   "unknown option %s\nusage: %s [--label=NAME] "
                   "[--json=FILE]\n",
                   arg.c_str(), bench);
      return false;
    }
  }
  return true;
}

/// The default experiment configuration used across tables (pipeline II=1,
/// modest partitioning — the "optimized design point" both flows share).
inline flow::KernelConfig defaultConfig() {
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 1;
  config.partitionFactor = 2;
  return config;
}

/// Runs a flow and asserts success (aborts the bench with a message).
inline flow::FlowResult mustRun(flow::FlowResult result, const char *what) {
  if (!result.ok) {
    std::fprintf(stderr, "BENCH FAILURE (%s):\n%s\n", what,
                 result.diagnostics.c_str());
    std::exit(1);
  }
  return result;
}

/// Verifies functional equivalence; aborts on mismatch (a bench must never
/// report numbers for wrong results).
inline void mustCosim(const flow::FlowResult &result,
                      const flow::KernelSpec &spec) {
  std::string error;
  if (!flow::cosimAgainstReference(result, spec, error)) {
    std::fprintf(stderr, "BENCH FAILURE (cosim %s): %s\n",
                 spec.name.c_str(), error.c_str());
    std::exit(1);
  }
}

/// Runs the jobs across all cores (BatchRunner) and prints a one-line
/// utilization summary to stderr — stdout stays reserved for the table
/// rows, which must be byte-identical to a serial run.
inline flow::BatchOutcome runBenchBatch(const std::vector<flow::BatchJob> &jobs) {
  flow::BatchOutcome outcome = flow::runBatch(jobs);
  std::fprintf(stderr, "[batch] %s\n", outcome.trace.summary().c_str());
  return outcome;
}

inline void printRule(int width) {
  for (int i = 0; i < width; ++i)
    std::putchar('-');
  std::putchar('\n');
}

} // namespace mha::bench
