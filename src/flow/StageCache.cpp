#include "flow/StageCache.h"

#include "support/Metrics.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>

namespace mha::flow {

namespace {

using Stage = StageCache::Stage;

size_t slot(Stage stage) { return static_cast<size_t>(stage); }

/// The stage's label in metrics.
const char *stageName(Stage stage) {
  static const char *const names[] = {"mlir", "bridge", "synth"};
  return names[slot(stage)];
}

/// Per-stage entry-count backstop, independent of the byte cap: even an
/// unlimited cache sheds a stage's coldest entry once that stage holds
/// this many entries.
constexpr size_t kMaxEntriesPerStage = 4096;

/// Per-stage metrics-registry handles: the hit/miss/eviction counters are
/// the only record of lookups, and the resident-bytes gauge mirrors the
/// structural byte total the cap is enforced against.
struct StageMetrics {
  metrics::Counter &hits;
  metrics::Counter &misses;
  metrics::Counter &evictions;
  metrics::Gauge &bytes;
};

StageMetrics &stageMetrics(Stage stage) {
  static std::array<StageMetrics, StageCache::kNumStages> all = [] {
    metrics::Registry &reg = metrics::Registry::global();
    auto make = [&](Stage s) {
      metrics::Labels labels = {{"stage", stageName(s)}};
      return StageMetrics{
          reg.counter("mha_stage_cache_hits_total", "stage-cache lookup hits",
                      labels),
          reg.counter("mha_stage_cache_misses_total",
                      "stage-cache lookup misses", labels),
          reg.counter("mha_stage_cache_evictions_total",
                      "stage-cache entries evicted (LRU)", labels),
          reg.gauge("mha_stage_cache_bytes",
                    "payload bytes resident in the stage map", labels)};
    };
    return std::array<StageMetrics, StageCache::kNumStages>{
        make(Stage::Mlir), make(Stage::Bridge), make(Stage::Synth)};
  }();
  return all[slot(stage)];
}

} // namespace

struct StageCache::Impl {
  struct Entry {
    Stage stage;
    uint64_t key;
    std::any value;
    int64_t bytes;
  };
  /// One recency order over every stage: most recently used at the front.
  using Lru = std::list<Entry>;

  mutable std::mutex mutex;
  Lru lru;
  std::array<std::unordered_map<uint64_t, Lru::iterator>, kNumStages> index;
  std::array<int64_t, kNumStages> bytes{}; // resident payload per stage
  int64_t totalBytes = 0;
  int64_t limitBytes = 0; // 0 = unbounded

  /// Adds `delta` to `stage`'s resident bytes and its gauge.
  void charge(Stage stage, int64_t delta) {
    bytes[slot(stage)] += delta;
    totalBytes += delta;
    stageMetrics(stage).bytes.set(bytes[slot(stage)]);
  }

  /// Drops `it`, keeping the byte totals in step; `evicted` also counts
  /// it as an LRU eviction.
  void erase(Lru::iterator it, bool evicted) {
    charge(it->stage, -it->bytes);
    if (evicted)
      ++stageMetrics(it->stage).evictions;
    index[slot(it->stage)].erase(it->key);
    lru.erase(it);
  }

  /// Evicts globally-coldest entries until the total payload fits the
  /// byte cap again.
  void enforceLimit() {
    while (limitBytes > 0 && totalBytes > limitBytes && !lru.empty())
      erase(std::prev(lru.end()), /*evicted=*/true);
  }
};

StageCache::Impl &StageCache::impl() const {
  static Impl instance;
  return instance;
}

StageCache &StageCache::global() {
  static StageCache instance;
  return instance;
}

bool StageCache::lookup(Stage stage, uint64_t key, std::any &value) {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  auto &index = i.index[slot(stage)];
  auto it = index.find(key);
  if (it == index.end()) {
    ++stageMetrics(stage).misses;
    return false;
  }
  i.lru.splice(i.lru.begin(), i.lru, it->second); // refresh recency
  value = it->second->value;
  ++stageMetrics(stage).hits;
  return true;
}

void StageCache::store(Stage stage, uint64_t key, std::any value,
                       int64_t bytes) {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  auto &index = i.index[slot(stage)];
  auto it = index.find(key);
  if (it != index.end()) {
    i.erase(it->second, /*evicted=*/false);
  } else if (index.size() >= kMaxEntriesPerStage) {
    // Backstop: the stage's coldest entry, searched from the cold end.
    auto coldest = std::find_if(
        i.lru.rbegin(), i.lru.rend(),
        [&](const Impl::Entry &e) { return e.stage == stage; });
    i.erase(std::prev(coldest.base()), /*evicted=*/true);
  }
  i.lru.push_front({stage, key, std::move(value), bytes});
  index.emplace(key, i.lru.begin());
  i.charge(stage, bytes);
  i.enforceLimit();
}

void StageCache::setLimitBytes(int64_t limitBytes) {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  i.limitBytes = limitBytes > 0 ? limitBytes : 0;
  i.enforceLimit();
}

int64_t StageCache::limitBytes() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  return i.limitBytes;
}

StageCache::Counters StageCache::counters() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  Counters out;
  for (Stage stage : {Stage::Mlir, Stage::Bridge, Stage::Synth}) {
    StageMetrics &sm = stageMetrics(stage);
    out[stage] = {sm.hits.value(), sm.misses.value(), i.bytes[slot(stage)],
                  sm.evictions.value()};
  }
  return out;
}

void StageCache::clear() {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  i.lru.clear();
  for (auto &index : i.index)
    index.clear();
  for (Stage stage : {Stage::Mlir, Stage::Bridge, Stage::Synth}) {
    StageMetrics &sm = stageMetrics(stage);
    sm.hits.reset();
    sm.misses.reset();
    sm.evictions.reset();
    i.charge(stage, -i.bytes[slot(stage)]);
  }
}

size_t StageCache::size() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  return i.lru.size();
}

} // namespace mha::flow
