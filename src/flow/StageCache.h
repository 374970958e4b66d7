// StageCache.h - content-addressed incremental-recompilation cache.
//
// The flow driver (Flow.cpp) runs every flow as one table of stages
// (mlir, bridge, synth). Each row hashes its *input* — the printed IR it
// consumes plus the options that shape it — into a 64-bit key; the driver
// looks the key up before running the row and stores the row's output
// after a successful run. Keys are content-addressed, so an edit to one
// kernel invalidates exactly its chain from the edited stage downward,
// and kernels that lower to identical IR share the downstream entries.
// The cache is value-agnostic: a row stores a typed value (the printed
// mir module; the lir module plus adaptor stats or emitted C++; the
// SynthesisReport) and states the entry's structural byte size.
//
// The cache is process-global and thread-safe: BatchRunner jobs, the DSE
// evaluator, the fuzz oracle and mha-serve sessions all share it through
// FlowOptions::useStageCache (off by default — a cold run's behaviour and
// output are bit-identical with the flag off). Only successful stage runs
// are stored; failures always re-execute so diagnostics are regenerated.
//
// All entries live in one LRU keyed by (stage, key), bounded by a
// per-stage entry-count backstop and an optional process-wide byte cap
// (setLimitBytes, `--stage-cache-limit` on mha-serve). Hits and stores
// refresh recency and the cap evicts the globally coldest entry, so a
// resident daemon converges on its hot working set. Each hit, miss or
// eviction bumps exactly one metrics counter
// (mha_stage_cache_{hits,misses,evictions}_total{stage=...}); counters()
// reads those back alongside the resident byte totals the cap needs.
#pragma once

#include <any>
#include <array>
#include <cstddef>
#include <cstdint>

namespace mha::flow {

class StageCache {
public:
  /// The cached stages, in flow order.
  enum class Stage { Mlir, Bridge, Synth };
  static constexpr size_t kNumStages = 3;

  /// The shared process-wide instance every flow uses.
  static StageCache &global();

  /// One stage's lookups and residency. `bytes` counts the payloads
  /// currently resident, at the sizes their rows stated when storing.
  struct StageCounters {
    int64_t hits = 0, misses = 0, bytes = 0, evictions = 0;
  };

  /// Per-stage and total view: lookups and evictions read from the
  /// mha_stage_cache_* counters, bytes from the cache itself.
  struct Counters {
    std::array<StageCounters, kNumStages> stages;

    StageCounters &operator[](Stage stage) {
      return stages[static_cast<size_t>(stage)];
    }
    const StageCounters &operator[](Stage stage) const {
      return stages[static_cast<size_t>(stage)];
    }
    int64_t hits() const { return sum(&StageCounters::hits); }
    int64_t misses() const { return sum(&StageCounters::misses); }
    int64_t bytes() const { return sum(&StageCounters::bytes); }
    int64_t evictions() const { return sum(&StageCounters::evictions); }
    /// hits / (hits + misses), 0 when no lookups happened.
    double hitRate() const {
      int64_t total = hits() + misses();
      return total ? double(hits()) / double(total) : 0.0;
    }

  private:
    int64_t sum(int64_t StageCounters::*field) const {
      int64_t total = 0;
      for (const StageCounters &stage : stages)
        total += stage.*field;
      return total;
    }
  };

  /// On a hit, copies `stage`'s entry for `key` into `value` and makes it
  /// the most recently used.
  bool lookup(Stage stage, uint64_t key, std::any &value);

  /// Stores (or replaces) `stage`'s entry for `key`, charged at `bytes`
  /// against the byte cap.
  void store(Stage stage, uint64_t key, std::any value, int64_t bytes);

  /// Caps total resident payload bytes across all stages (0 = unbounded,
  /// the default). When a store pushes the total past the cap,
  /// least-recently-used entries are evicted — globally, coldest first,
  /// regardless of stage — until the total fits again. An entry larger
  /// than the whole cap is evicted immediately after landing, so the
  /// resident-bytes gauges never exceed the cap after any store.
  void setLimitBytes(int64_t limitBytes);
  int64_t limitBytes() const;

  Counters counters() const;

  /// Drops every entry and zeroes the byte totals and the
  /// mha_stage_cache_* counters.
  void clear();

  /// Total cached entries across all stages.
  size_t size() const;

private:
  StageCache() = default;

  struct Impl;
  Impl &impl() const;
};

} // namespace mha::flow
