#include "flow/BatchRunner.h"

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

namespace mha::flow {

namespace {

using Clock = std::chrono::steady_clock;

/// Exact nearest-rank percentile over sorted values (p in [0, 100]).
double exactPercentile(const std::vector<double> &sorted, double p) {
  if (sorted.empty())
    return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank < 1)
    rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Runs one job with full error containment: any exception becomes a
/// failed FlowResult instead of escaping into the pool. The flow driver
/// closes the total window on every return; a contained exception gets
/// the time the job ran before it threw, from the job's span.
FlowResult runJobContained(const BatchJob &job, telemetry::Span &jobSpan) {
  auto failed = [&](std::string diagnostics) {
    FlowResult result;
    result.kind = job.kind;
    result.kernelName = job.spec ? job.spec->name : "<null>";
    result.diagnostics = std::move(diagnostics);
    result.timings.totalMs = jobSpan.finish();
    return result;
  };
  try {
    if (!job.spec)
      throw std::invalid_argument("batch job has no kernel spec");
    return job.kind == FlowKind::Adaptor
               ? runAdaptorFlow(*job.spec, job.config, job.options)
               : runHlsCppFlow(*job.spec, job.config, job.options);
  } catch (const std::exception &e) {
    return failed(std::string("exception: ") + e.what());
  } catch (...) {
    return failed("exception: unknown");
  }
}

} // namespace

std::string BatchTrace::summary() const {
  return strfmt("%zu jobs on %u threads: %.0f ms wall, %.0f ms serial "
                "(%.2fx)",
                jobCount, threads, wallMs, serialMs, speedup());
}

std::string BatchOutcome::traceJson() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mha.batch-trace.v1\",\n";
  os << strfmt("  \"threads\": %u,\n", trace.threads);
  os << strfmt("  \"job_count\": %zu,\n  \"failures\": %zu,\n",
               trace.jobCount, trace.failures);
  os << "  \"wall_ms\": " << json::number(trace.wallMs)
     << ",\n  \"serial_ms\": " << json::number(trace.serialMs) << ",\n";
  os << "  \"speedup\": " << json::number(trace.speedup()) << ",\n";
  os << "  \"e2e_ms_p50\": " << json::number(trace.e2eP50Ms)
     << ",\n  \"e2e_ms_p90\": " << json::number(trace.e2eP90Ms)
     << ",\n  \"e2e_ms_p99\": " << json::number(trace.e2eP99Ms) << ",\n";
  os << "  \"jobs_per_worker\": [";
  for (size_t w = 0; w < trace.jobsPerWorker.size(); ++w)
    os << (w ? ", " : "") << trace.jobsPerWorker[w];
  os << "],\n";
  os << "  \"jobs\": [\n";
  for (size_t i = 0; i < trace.jobs.size(); ++i) {
    const JobTrace &job = trace.jobs[i];
    const FlowResult &result = results[i];
    os << "    {\n";
    os << strfmt("      \"index\": %zu,\n", i);
    os << "      \"kernel\": \"" << json::escape(result.kernelName) << "\",\n";
    os << "      \"label\": \"" << json::escape(job.label) << "\",\n";
    os << "      \"flow\": \"" << flowKindName(result.kind) << "\",\n";
    os << "      \"ok\": " << (result.ok ? "true" : "false") << ",\n";
    os << "      \"accepted\": " << (result.synth.accepted ? "true" : "false")
       << ",\n";
    os << strfmt("      \"worker\": %d,\n", job.worker);
    os << "      \"queue_ms\": " << json::number(job.queueMs) << ",\n";
    os << "      \"wall_ms\": " << json::number(job.wallMs) << ",\n";
    os << strfmt("      \"queue_depth_at_start\": %zu,\n",
                 job.queueDepthAtStart);
    const StageTimings &t = result.timings;
    os << "      \"timings\": {\"mlir_opt_ms\": " << json::number(t.mlirOptMs)
       << ", \"bridge_ms\": " << json::number(t.bridgeMs)
       << ", \"synth_ms\": " << json::number(t.synthMs)
       << ", \"total_ms\": " << json::number(t.totalMs) << "},\n";
    os << "      \"spans\": [";
    for (size_t s = 0; s < result.spans.size(); ++s) {
      const StageSpan &span = result.spans[s];
      os << (s ? ", " : "") << "{\"stage\": \"" << json::escape(span.stage)
         << "\", \"name\": \"" << json::escape(span.name)
         << "\", \"ms\": " << json::number(span.ms) << "}";
    }
    os << "],\n";
    os << "      \"adaptor_stats\": {";
    bool first = true;
    for (const auto &[key, value] : result.adaptorStats) {
      os << (first ? "" : ", ") << "\"" << json::escape(key)
         << "\": " << value;
      first = false;
    }
    os << "}";
    if (!result.ok) {
      if (std::string error = firstLine(result.diagnostics); !error.empty())
        os << ",\n      \"error\": \"" << json::escape(error) << "\"";
    }
    os << "\n    }" << (i + 1 < trace.jobs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

BatchOutcome runBatch(const std::vector<BatchJob> &jobs,
                      const BatchOptions &options) {
  BatchOutcome out;
  out.results.resize(jobs.size());
  out.trace.jobs.resize(jobs.size());
  out.trace.jobCount = jobs.size();

  std::unique_ptr<ThreadPool> ownedPool;
  ThreadPool *pool = options.pool;
  if (!pool) {
    ownedPool = std::make_unique<ThreadPool>(options.numThreads);
    pool = ownedPool.get();
  }
  out.trace.threads = pool->size();
  out.trace.jobsPerWorker.assign(pool->size(), 0);

  // The whole batch is one span on the submitting thread; each job runs
  // inside its own span in the executing worker's lane, so a Chrome trace
  // shows one lane per pool worker with the per-job flow-stage/pass spans
  // nested beneath the job.
  telemetry::Span batchSpan(strfmt("batch:%zu-jobs", jobs.size()), "batch");
  TaskGroup group(*pool);
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto submitted = Clock::now();
    group.submit([&, i, submitted] {
      const BatchJob &job = jobs[i];
      JobTrace &trace = out.trace.jobs[i];
      trace.label = job.label;
      trace.worker = ThreadPool::currentWorkerIndex();
      trace.queueDepthAtStart = pool->queueDepth();
      if (trace.worker >= 0)
        telemetry::Tracer::setThreadLane(trace.worker,
                                         strfmt("worker %d", trace.worker));

      trace.queueMs = std::chrono::duration<double, std::milli>(
                          Clock::now() - submitted)
                          .count();
      const char *kernel = job.spec ? job.spec->name.c_str() : "<null>";
      telemetry::Span jobSpan(
          strfmt("job:%s:%s", kernel, flowKindName(job.kind)), "batch-job",
          {{"index", strfmt("%zu", i)}, {"label", job.label}});
      out.results[i] = runJobContained(job, jobSpan);
      trace.wallMs = jobSpan.finish();
      if (!out.results[i].ok)
        telemetry::Tracer::global().instant(strfmt("job-failed:%s", kernel),
                                            "batch-job");
    });
  }
  group.wait();
  out.trace.wallMs = batchSpan.finish();

  static metrics::Histogram &jobE2eUs = metrics::Registry::global().histogram(
      "mha_batch_job_e2e_us",
      "per-job end-to-end latency (queue wait + flow execution)");
  std::vector<double> e2eMs;
  e2eMs.reserve(out.trace.jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobTrace &trace = out.trace.jobs[i];
    out.trace.serialMs += trace.wallMs;
    e2eMs.push_back(trace.queueMs + trace.wallMs);
    jobE2eUs.recordMs(trace.queueMs + trace.wallMs);
    if (!out.results[i].ok)
      ++out.trace.failures;
    if (trace.worker >= 0 &&
        static_cast<size_t>(trace.worker) < out.trace.jobsPerWorker.size())
      ++out.trace.jobsPerWorker[static_cast<size_t>(trace.worker)];
  }
  std::sort(e2eMs.begin(), e2eMs.end());
  out.trace.e2eP50Ms = exactPercentile(e2eMs, 50);
  out.trace.e2eP90Ms = exactPercentile(e2eMs, 90);
  out.trace.e2eP99Ms = exactPercentile(e2eMs, 99);
  return out;
}

} // namespace mha::flow
