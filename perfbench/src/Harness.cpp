// Harness.cpp - the metric catalogue, the run context and the
// correctness gate shared by every workload.
#include "Workloads.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

using namespace mha;

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"ops_per_s", "op/s"},
      {"op_ms_p50", "ms"},
      {"op_ms_tail", "ms"},
      {"points_per_s", "points/s"},
      {"qor_latency_geomean_cycles", "cycles"},
      {"qor_lut_geomean", "LUT"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<std::string> &trackedAdaptorPasses() {
  static const std::vector<std::string> passes = {
      "rec2iter",         "inline",
      "callsite-privatize", "dce",
      "simplifycfg",      "memref-descriptor-elimination",
      "intrinsic-legalize", "instcombine",
      "gep-canonicalize", "cse",
      "licm",             "pointer-type-recovery",
      "metadata-convert", "attribute-scrub",
      "hls-compat-verify"};
  return passes;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> out = {
        {"mir.build_ms", "ms"},
        {"mir.prepare_ms", "ms"},
        {"mir.affine_to_scf_ms", "ms"},
        {"lowering.lower_ms", "ms"},
        {"adaptor.pipeline_ms", "ms"},
        {"adaptor.in_pass_ms", "ms"},
        {"adaptor.between_pass_ms", "ms"},
        {"adaptor.between_pass_share", "ratio"},
        {"adaptor.insts_out", "count"},
        {"hlscpp.emit_ms", "ms"},
        {"hlscpp.frontend_ms", "ms"},
        {"vhls.synth_ms", "ms"},
        {"vhls.synth_share", "ratio"},
        {"vhls.insts_scheduled", "count"},
        {"vhls.us_per_inst", "us"},
        {"lir.print_ms", "ms"},
        {"lir.parse_ms", "ms"},
        {"flow.replay_ms", "ms"},
        {"flow.warm_flow_ms", "ms"},
        {"flow.cache_hit_rate", "ratio"},
        {"flow.cache_evictions", "count"},
        {"flow.cache_bytes", "bytes"},
        {"serve.warm_ms_p50", "ms"},
        {"serve.warm_ms_tail", "ms"},
        {"serve.cold_ms_p50", "ms"},
        {"serve.cold_ms_tail", "ms"},
        {"serve.overhead_ms_p50", "ms"},
        {"serve.parse_us", "us"},
        {"serve.render_us", "us"},
        {"serve.admitted", "count"},
        {"serve.busy", "count"},
        {"dse.probe_ms", "ms"},
        {"dse.estimate_us_per_point", "us"},
        {"dse.evaluate_ms_per_point", "ms"},
        {"dse.synth_runs", "count"},
        {"dse.estimates", "count"},
        {"dse.cache_hits", "count"},
        {"dse.promotion_ratio", "ratio"},
        {"dse.frontier_yield", "ratio"},
        {"trace.untraced_op_ms_p50", "ms"},
        {"trace.traced_op_ms_p50", "ms"},
        {"trace.overhead_ms", "ms"},
        {"trace.overhead_share", "ratio"},
    };
    for (const std::string &pass : trackedAdaptorPasses())
      out.push_back({"adaptor.pass_ms." + metricComponent(pass), "ms"});
    out.push_back({"adaptor.pass_ms.other", "ms"});
    return out;
  }();
  return metrics;
}

Context::Context(Options options)
    : options_(std::move(options)), recorder_(options_.trace) {}

bool Context::ready() {
  std::printf("perfbench: ready\n");
  std::fflush(stdout);
  return !options_.setupOnly;
}

void Context::fail(int64_t ops, const std::string &why) {
  failed_ += ops;
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < 20)
    failures_.push_back(why);
}

void Context::note(const std::string &line) {
  std::lock_guard<std::mutex> lock(mutex_);
  notes_.push_back(line);
}

double Context::peakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would also count the parent process's peak from before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

std::string describeTail(const Tail &t, const char *unit) {
  return strfmt("%.4f %s at p%.2f over %zu samples (%zu beyond)", t.value,
                unit, t.percentile, t.samples, t.beyond);
}

void Context::fillLayerMetrics() {
  for (const MetricSpec &spec : perLayerMetrics())
    metrics_.set(spec.name, 0, spec.unit);
  std::map<std::string, Recorder::LayerTime> layers = recorder_.layerTimes();
  std::map<std::string, double> counts = recorder_.counts();
  auto layer = [&](const char *name) {
    auto it = layers.find(name);
    return it == layers.end() ? Recorder::LayerTime{} : it->second;
  };
  auto perCall = [](double ms, int64_t calls) {
    return calls ? ms / double(calls) : 0.0;
  };
  auto meanSelf = [&](const char *metric, const char *spanName) {
    Recorder::LayerTime t = layer(spanName);
    metrics_.set(metric, perCall(t.selfMs, t.calls), "ms");
  };
  meanSelf("mir.build_ms", span::MirBuild);
  meanSelf("mir.prepare_ms", span::MirPrepare);
  meanSelf("mir.affine_to_scf_ms", span::MirAffineToScf);
  meanSelf("lowering.lower_ms", span::LoweringLower);
  meanSelf("hlscpp.emit_ms", span::HlscppEmit);
  meanSelf("hlscpp.frontend_ms", span::HlscppFrontend);
  meanSelf("lir.print_ms", span::LirPrint);
  meanSelf("lir.parse_ms", span::LirParse);

  Recorder::LayerTime pipeline = layer(span::AdaptorPipeline);
  double inPassMs = 0;
  std::map<std::string, double> passMs;
  const std::string prefix = span::AdaptorPassPrefix;
  for (const auto &[name, t] : layers) {
    if (name.rfind(prefix, 0) != 0)
      continue;
    inPassMs += t.totalMs;
    std::string pass = name.substr(prefix.size());
    bool tracked = false;
    for (const std::string &known : trackedAdaptorPasses())
      tracked |= metricComponent(known) == pass;
    passMs[tracked ? pass : "other"] += t.totalMs;
  }
  for (const auto &[pass, ms] : passMs)
    metrics_.set("adaptor.pass_ms." + pass, perCall(ms, pipeline.calls), "ms");
  metrics_.set("adaptor.pipeline_ms", perCall(pipeline.totalMs, pipeline.calls),
               "ms");
  metrics_.set("adaptor.in_pass_ms", perCall(inPassMs, pipeline.calls), "ms");
  metrics_.set("adaptor.between_pass_ms",
               perCall(pipeline.selfMs, pipeline.calls), "ms");
  metrics_.set("adaptor.between_pass_share",
               ratio(pipeline.selfMs, pipeline.totalMs), "ratio");
  metrics_.set("adaptor.insts_out",
               perCall(counts["adaptor.insts_out"], pipeline.calls), "count");

  Recorder::LayerTime synth = layer(span::VhlsSynth);
  Recorder::LayerTime flowSpan = layer(span::Flow);
  Recorder::LayerTime cacheIo = layer(span::CacheIo);
  double flowMs = flowSpan.totalMs - cacheIo.totalMs;
  metrics_.set("vhls.synth_ms", perCall(synth.totalMs, synth.calls), "ms");
  metrics_.set("vhls.synth_share", ratio(synth.totalMs, flowMs), "ratio");
  metrics_.set("vhls.insts_scheduled",
               perCall(counts["vhls.insts_scheduled"], synth.calls), "count");
  metrics_.set("vhls.us_per_inst",
               ratio(1000.0 * synth.totalMs, counts["vhls.insts_scheduled"]),
               "us");
  metrics_.set("flow.replay_ms", perCall(flowMs, flowSpan.calls), "ms");
}

void Context::setOpMetrics(const std::vector<double> &opMs, double p50,
                           const Tail &opTail, const QuietWindows &quiet,
                           double points,
                           const std::vector<double> &qorLatency,
                           const std::vector<double> &qorLut, double peakRss) {
  metrics_.set("ops_per_s", ratio(double(opMs.size()), quiet.keptSeconds),
               "op/s");
  metrics_.set("op_ms_p50", p50, "ms");
  metrics_.set("op_ms_tail", opTail.value, "ms");
  metrics_.set("points_per_s", ratio(points, quiet.keptSeconds), "points/s");
  note(strfmt("timings over the %zu quietest of %zu %g-s windows (%zu of "
              "%zu ops)",
              quiet.keptWindows, quiet.windows, kWindowMs / 1000.0,
              opMs.size(), quiet.kept.size()));
  metrics_.set("qor_latency_geomean_cycles", geomean(qorLatency), "cycles");
  metrics_.set("qor_lut_geomean", geomean(qorLut), "LUT");
  metrics_.set("peak_rss_mb", peakRss, "MiB");
  note(strfmt("op_ms_p50 %.4f ms over %zu ops (plain median of all ops "
              "%.4f ms)",
              p50, opMs.size(), median(opMs)));
  note("op_ms_tail " + describeTail(opTail, "ms"));
  note(strfmt("qor over %zu distinct design points", qorLatency.size()));
}

void Context::setTraceOverhead(const std::vector<double> &untracedMs,
                               const std::vector<double> &tracedMs) {
  double untraced = median(untracedMs), traced = median(tracedMs);
  metrics_.set("trace.untraced_op_ms_p50", untraced, "ms");
  metrics_.set("trace.traced_op_ms_p50", traced, "ms");
  metrics_.set("trace.overhead_ms", traced - untraced, "ms");
  metrics_.set("trace.overhead_share", ratio(traced - untraced, untraced),
               "ratio");
  note(strfmt("tracing overhead %.4f ms on an untraced op_ms_p50 of %.4f ms "
              "(%zu untraced, %zu traced ops)",
              traced - untraced, untraced, untracedMs.size(),
              tracedMs.size()));
}

int Context::finish() {
  if (options_.trace) {
    std::string path = options_.workDir + "/trace-" + options_.workload + "-" +
                       std::to_string(options_.seed) + ".json";
    if (recorder_.writeJson(path))
      note("trace written to " + path);
    else
      fail(0, "cannot write trace file " + path);
  }
  int64_t attempted = attempted_.load(), failed = failed_.load();
  bool correct = failed == 0 && failures_.empty();
  note(strfmt("error_rate %.6f (%lld failed of %lld attempted)",
              ratio(double(failed), double(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted)));
  for (const std::string &line : notes_)
    std::printf("# %s\n", line.c_str());
  for (const std::string &why : failures_)
    std::printf("# FAILURE: %s\n", why.c_str());
  if (attempted < 1)
    attempted = 1; // the result line promises at least one attempt
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(std::min(failed, attempted)),
              metrics_.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &work) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < n; i = next++)
      work(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads && t < n; ++t)
    pool.emplace_back(worker);
  worker();
  for (std::thread &t : pool)
    t.join();
}

Qor qorOf(const flow::FlowResult &result) {
  const vhls::FunctionReport *top = result.synth.top();
  if (!top)
    return {};
  return {double(top->latencyCycles), double(top->resources.lut)};
}

std::string checkPoint(Context &ctx, const DesignPoint &point,
                       const std::string &expectedJson,
                       flow::FlowResult &result) {
  result = runFlow(point);
  if (!result.ok)
    return point.key() + ": flow failed: " + result.diagnostics;
  std::string json = result.synth.json();
  if (!expectedJson.empty() && json != expectedJson)
    return point.key() + ": report differs between repetitions";
  std::string error;
  if (!flow::cosimAgainstReference(result, *point.spec, error))
    return point.key() + ": co-simulation mismatch: " + error;
  if (ctx.options().trace) {
    ReplayOutcome replay = replayFlow(point, ctx.recorder(), -1);
    if (!replay.ok)
      return point.key() + ": replay failed: " + replay.error;
    if (replay.reportJson != json)
      return point.key() + ": layer-by-layer replay report differs from the "
                           "flow's report";
  }
  return "";
}

} // namespace perfbench
