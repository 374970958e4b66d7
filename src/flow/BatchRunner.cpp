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

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

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
/// the time the job ran before it threw.
FlowResult runJobContained(const BatchJob &job) {
  Clock::time_point start = Clock::now();
  auto failed = [&](std::string diagnostics) {
    FlowResult result;
    result.kind = job.kind;
    result.kernelName = job.spec ? job.spec->name : "<null>";
    result.diagnostics = std::move(diagnostics);
    result.timings.totalMs = msBetween(start, Clock::now());
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

std::string BatchTrace::json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mha.batch-trace.v1\",\n";
  os << strfmt("  \"threads\": %u,\n", threads);
  os << strfmt("  \"job_count\": %zu,\n  \"failures\": %zu,\n", jobCount,
               failures);
  os << "  \"wall_ms\": " << json::number(wallMs)
     << ",\n  \"serial_ms\": " << json::number(serialMs) << ",\n";
  os << "  \"speedup\": "
     << json::number(wallMs > 0 ? serialMs / wallMs : 0.0) << ",\n";
  os << "  \"e2e_ms_p50\": " << json::number(e2eP50Ms)
     << ",\n  \"e2e_ms_p90\": " << json::number(e2eP90Ms)
     << ",\n  \"e2e_ms_p99\": " << json::number(e2eP99Ms) << ",\n";
  os << "  \"jobs_per_worker\": [";
  for (size_t w = 0; w < jobsPerWorker.size(); ++w)
    os << (w ? ", " : "") << jobsPerWorker[w];
  os << "],\n";
  os << "  \"jobs\": [\n";
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobTrace &job = jobs[i];
    os << "    {\n";
    os << strfmt("      \"index\": %zu,\n", job.index);
    os << "      \"kernel\": \"" << json::escape(job.kernel) << "\",\n";
    os << "      \"label\": \"" << json::escape(job.label) << "\",\n";
    os << "      \"flow\": \"" << flowKindName(job.kind) << "\",\n";
    os << "      \"ok\": " << (job.ok ? "true" : "false") << ",\n";
    os << "      \"accepted\": " << (job.accepted ? "true" : "false")
       << ",\n";
    os << strfmt("      \"worker\": %d,\n", job.worker);
    os << "      \"queue_ms\": " << json::number(job.queueMs) << ",\n";
    os << "      \"wall_ms\": " << json::number(job.wallMs) << ",\n";
    os << strfmt("      \"queue_depth_at_start\": %zu,\n",
                 job.queueDepthAtStart);
    os << "      \"timings\": {\"mlir_opt_ms\": "
       << json::number(job.timings.mlirOptMs)
       << ", \"bridge_ms\": " << json::number(job.timings.bridgeMs)
       << ", \"synth_ms\": " << json::number(job.timings.synthMs)
       << ", \"total_ms\": " << json::number(job.timings.totalMs) << "},\n";
    os << "      \"spans\": [";
    for (size_t s = 0; s < job.spans.size(); ++s) {
      const StageSpan &span = job.spans[s];
      os << (s ? ", " : "") << "{\"stage\": \"" << json::escape(span.stage)
         << "\", \"name\": \"" << json::escape(span.name)
         << "\", \"ms\": " << json::number(span.ms) << "}";
    }
    os << "],\n";
    os << "      \"adaptor_stats\": {";
    bool first = true;
    for (const auto &[key, value] : job.adaptorStats) {
      os << (first ? "" : ", ") << "\"" << json::escape(key)
         << "\": " << value;
      first = false;
    }
    os << "}";
    if (!job.error.empty())
      os << ",\n      \"error\": \"" << json::escape(job.error) << "\"";
    os << "\n    }" << (i + 1 < jobs.size() ? "," : "") << "\n";
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
  auto batchStart = Clock::now();
  TaskGroup group(*pool);
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto submitted = Clock::now();
    group.submit([&, i, submitted] {
      const BatchJob &job = jobs[i];
      JobTrace &trace = out.trace.jobs[i];
      trace.index = i;
      trace.kernel = job.spec ? job.spec->name : "<null>";
      trace.label = job.label;
      trace.kind = job.kind;
      trace.worker = ThreadPool::currentWorkerIndex();
      trace.queueDepthAtStart = pool->queueDepth();
      if (trace.worker >= 0)
        telemetry::Tracer::setThreadLane(trace.worker,
                                         strfmt("worker %d", trace.worker));

      auto start = Clock::now();
      trace.queueMs = msBetween(submitted, start);
      telemetry::Span jobSpan(
          strfmt("job:%s:%s", trace.kernel.c_str(), flowKindName(job.kind)),
          "batch-job",
          {{"index", strfmt("%zu", i)}, {"label", job.label}});
      FlowResult result = runJobContained(job);
      trace.wallMs = jobSpan.finish();

      trace.ok = result.ok;
      trace.accepted = result.synth.accepted;
      trace.timings = result.timings;
      trace.spans = result.spans;
      trace.adaptorStats = result.adaptorStats;
      if (!result.ok) {
        trace.error = firstLine(result.diagnostics);
        telemetry::Tracer::global().instant(
            strfmt("job-failed:%s", trace.kernel.c_str()), "batch-job");
      }
      out.results[i] = std::move(result);
    });
  }
  group.wait();
  batchSpan.finish();
  out.trace.wallMs = msBetween(batchStart, Clock::now());

  static metrics::Histogram &jobE2eUs = metrics::Registry::global().histogram(
      "mha_batch_job_e2e_us",
      "per-job end-to-end latency (queue wait + flow execution)");
  std::vector<double> e2eMs;
  e2eMs.reserve(out.trace.jobs.size());
  for (const JobTrace &trace : out.trace.jobs) {
    out.trace.serialMs += trace.wallMs;
    e2eMs.push_back(trace.queueMs + trace.wallMs);
    jobE2eUs.record(
        static_cast<int64_t>((trace.queueMs + trace.wallMs) * 1000.0));
    if (!trace.ok)
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
