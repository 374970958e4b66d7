// BatchRunner tests: deterministic submission-order results that are
// bit-identical to serial flow runs, per-job error containment, and the
// structured trace (stage timings, worker occupancy, JSON export).
#include "flow/BatchRunner.h"

#include "support/Json.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

using namespace mha;
using namespace mha::flow;

namespace {

KernelConfig tunedConfig() {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  return config;
}

// Built through a named value rather than an aggregate temporary: GCC 12's
// -Wmaybe-uninitialized false-fires on pushing brace-init temporaries that
// contain a std::map (the FlowOptions fuLimits).
BatchJob makeJob(const KernelSpec *spec, FlowKind kind,
                 std::string label = "") {
  BatchJob job;
  job.spec = spec;
  job.config = tunedConfig();
  job.kind = kind;
  job.label = std::move(label);
  return job;
}

/// A kernel whose module construction throws — the adversarial job the
/// batch must contain without poisoning its neighbors.
KernelSpec bombKernel() {
  KernelSpec bomb = *findKernel("fir");
  bomb.name = "bomb";
  bomb.build = [](mir::MContext &, const KernelConfig &) -> mir::OwnedModule {
    throw std::runtime_error("kernel construction exploded");
  };
  return bomb;
}

} // namespace

TEST(BatchRunner, MatchesSerialBitExact) {
  std::vector<BatchJob> jobs;
  for (const char *name : {"gemm", "fir", "atax"})
    jobs.push_back(makeJob(findKernel(name), FlowKind::Adaptor));
  jobs.push_back(makeJob(findKernel("mvt"), FlowKind::HlsCpp));

  BatchOptions options;
  options.numThreads = 4;
  BatchOutcome outcome = runBatch(jobs, options);
  ASSERT_EQ(outcome.results.size(), jobs.size());

  for (size_t i = 0; i < jobs.size(); ++i) {
    FlowResult serial = jobs[i].kind == FlowKind::Adaptor
                            ? runAdaptorFlow(*jobs[i].spec, jobs[i].config)
                            : runHlsCppFlow(*jobs[i].spec, jobs[i].config);
    const FlowResult &batched = outcome.results[i];
    ASSERT_TRUE(batched.ok) << batched.diagnostics;
    EXPECT_EQ(batched.kernelName, jobs[i].spec->name);
    // The whole synthesis report — latency, resources, loops, arrays —
    // must be byte-identical to the serial run.
    EXPECT_EQ(batched.synth.str(), serial.synth.str());
    EXPECT_EQ(batched.synth.json(), serial.synth.json());
    EXPECT_EQ(batched.adaptorStats, serial.adaptorStats);
    EXPECT_EQ(batched.hlsCpp, serial.hlsCpp);
  }
}

TEST(BatchRunner, DeterministicSubmissionOrder) {
  std::vector<BatchJob> jobs;
  for (const KernelSpec &spec : allKernels())
    jobs.push_back(makeJob(&spec, FlowKind::Adaptor));

  BatchOptions wide;
  wide.numThreads = 8;
  BatchOutcome parallel = runBatch(jobs, wide);
  BatchOptions narrow;
  narrow.numThreads = 1;
  BatchOutcome serial = runBatch(jobs, narrow);

  ASSERT_EQ(parallel.results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    // Results sit at their submission index regardless of which worker
    // finished first, so any thread count yields the same ordering.
    EXPECT_EQ(parallel.results[i].kernelName, jobs[i].spec->name);
    EXPECT_EQ(parallel.results[i].synth.str(), serial.results[i].synth.str());
    EXPECT_EQ(parallel.trace.jobs[i].index, i);
  }
}

TEST(BatchRunner, FailingJobDoesNotPoisonNeighbors) {
  KernelSpec bomb = bombKernel();
  std::vector<BatchJob> jobs;
  jobs.push_back(makeJob(findKernel("fir"), FlowKind::Adaptor));
  jobs.push_back(makeJob(&bomb, FlowKind::Adaptor));
  jobs.push_back(makeJob(findKernel("gemm"), FlowKind::Adaptor));

  BatchOptions options;
  options.numThreads = 3;
  BatchOutcome outcome = runBatch(jobs, options);

  EXPECT_FALSE(outcome.results[1].ok);
  EXPECT_NE(outcome.results[1].diagnostics.find(
                "kernel construction exploded"),
            std::string::npos);
  EXPECT_EQ(outcome.trace.failures, 1u);
  EXPECT_FALSE(outcome.trace.jobs[1].error.empty());
  // A failed job still reports how long it ran (the trace's total_ms).
  const StageTimings &t = outcome.trace.jobs[1].timings;
  EXPECT_GT(t.totalMs, 0);
  EXPECT_GE(t.totalMs, t.mlirOptMs + t.bridgeMs + t.synthMs);

  // The neighbors are untouched: bit-identical to serial runs.
  FlowResult serialFir = runAdaptorFlow(*findKernel("fir"), tunedConfig());
  FlowResult serialGemm = runAdaptorFlow(*findKernel("gemm"), tunedConfig());
  ASSERT_TRUE(outcome.results[0].ok) << outcome.results[0].diagnostics;
  ASSERT_TRUE(outcome.results[2].ok) << outcome.results[2].diagnostics;
  EXPECT_EQ(outcome.results[0].synth.str(), serialFir.synth.str());
  EXPECT_EQ(outcome.results[2].synth.str(), serialGemm.synth.str());
}

TEST(BatchRunner, NullSpecIsContained) {
  std::vector<BatchJob> jobs(1);
  BatchOutcome outcome = runBatch(jobs);
  EXPECT_FALSE(outcome.results[0].ok);
  EXPECT_NE(outcome.results[0].diagnostics.find("no kernel spec"),
            std::string::npos);
  EXPECT_EQ(outcome.trace.failures, 1u);
}

TEST(BatchRunner, TraceRecordsStagesAndWorkers) {
  std::vector<BatchJob> jobs;
  for (const char *name : {"gemm", "fir", "atax", "bicg"})
    jobs.push_back(makeJob(findKernel(name), FlowKind::Adaptor, "tuned"));

  BatchOptions options;
  options.numThreads = 2;
  BatchOutcome outcome = runBatch(jobs, options);

  EXPECT_EQ(outcome.trace.threads, 2u);
  EXPECT_EQ(outcome.trace.jobCount, 4u);
  EXPECT_EQ(outcome.trace.failures, 0u);
  EXPECT_GT(outcome.trace.wallMs, 0);
  EXPECT_GT(outcome.trace.serialMs, 0);
  ASSERT_EQ(outcome.trace.jobsPerWorker.size(), 2u);
  EXPECT_EQ(outcome.trace.jobsPerWorker[0] + outcome.trace.jobsPerWorker[1],
            4u);
  for (const JobTrace &job : outcome.trace.jobs) {
    EXPECT_TRUE(job.ok);
    EXPECT_TRUE(job.accepted);
    EXPECT_EQ(job.label, "tuned");
    EXPECT_GT(job.wallMs, 0);
    EXPECT_GE(job.worker, 0);
    EXPECT_LT(job.worker, 2);
    EXPECT_FALSE(job.spans.empty());
    EXPECT_GT(job.timings.totalMs, 0);
    EXPECT_FALSE(job.adaptorStats.empty());
  }

  std::string json = outcome.trace.json();
  EXPECT_NE(json.find("\"schema\": \"mha.batch-trace.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"bridge\""), std::string::npos);
  EXPECT_NE(json.find("adaptor.descriptors-eliminated"), std::string::npos);
}

TEST(BatchRunner, TraceJsonIsWellFormed) {
  std::vector<BatchJob> jobs;
  jobs.push_back(makeJob(findKernel("gemm"), FlowKind::Adaptor, "tuned"));
  jobs.push_back(makeJob(findKernel("fir"), FlowKind::HlsCpp,
                         "hostile \"label\"\twith\nnasties\\"));
  KernelSpec bomb = bombKernel();
  jobs.push_back(makeJob(&bomb, FlowKind::Adaptor)); // error path too
  BatchOptions options;
  options.numThreads = 2;
  BatchOutcome outcome = runBatch(jobs, options);

  std::string error;
  EXPECT_TRUE(json::validate(outcome.trace.json(), &error)) << error;
  // The schema is unchanged by the telemetry work: still v1.
  EXPECT_NE(outcome.trace.json().find("mha.batch-trace.v1"),
            std::string::npos);
}

TEST(BatchRunner, TraceCarriesEndToEndPercentiles) {
  std::vector<BatchJob> jobs;
  for (const char *name : {"gemm", "fir", "conv2d"})
    if (const KernelSpec *spec = findKernel(name))
      jobs.push_back(makeJob(spec, FlowKind::Adaptor));
  ASSERT_GE(jobs.size(), 2u);
  BatchOptions options;
  options.numThreads = 2;
  BatchOutcome outcome = runBatch(jobs, options);

  // Exact nearest-rank percentiles over per-job queue+wall time: with
  // every sample non-negative they are ordered and land in the trace JSON
  // (never on stdout — the summary line stays byte-identical).
  EXPECT_GE(outcome.trace.e2eP50Ms, 0.0);
  EXPECT_LE(outcome.trace.e2eP50Ms, outcome.trace.e2eP90Ms);
  EXPECT_LE(outcome.trace.e2eP90Ms, outcome.trace.e2eP99Ms);
  std::string json = outcome.trace.json();
  EXPECT_NE(json.find("\"e2e_ms_p50\""), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ms_p90\""), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ms_p99\""), std::string::npos);
}

TEST(BatchRunner, ChromeTraceHasWorkerLanesAndNestedSpans) {
  namespace tel = mha::telemetry;
  tel::Tracer &tracer = tel::Tracer::global();
  tracer.setEnabled(true);
  tracer.reset();

  std::vector<BatchJob> jobs;
  for (const char *name : {"gemm", "fir", "atax", "bicg"})
    jobs.push_back(makeJob(findKernel(name), FlowKind::Adaptor));
  BatchOptions options;
  options.numThreads = 2;
  BatchOutcome outcome = runBatch(jobs, options);
  tracer.setEnabled(false);
  ASSERT_EQ(outcome.trace.failures, 0u);

  std::vector<tel::TraceEvent> events = tracer.events();

  // One batch span on the submitting thread covering everything.
  auto batch = std::find_if(events.begin(), events.end(),
                            [](const tel::TraceEvent &e) {
                              return e.category == "batch";
                            });
  ASSERT_NE(batch, events.end());
  EXPECT_EQ(batch->name, "batch:4-jobs");

  // Every job span sits in its executing worker's lane (= worker index).
  std::vector<const tel::TraceEvent *> jobSpans;
  for (const tel::TraceEvent &event : events)
    if (event.category == "batch-job" && event.phase == 'X')
      jobSpans.push_back(&event);
  ASSERT_EQ(jobSpans.size(), 4u);
  for (const tel::TraceEvent *span : jobSpans) {
    EXPECT_GE(span->lane, 0);
    EXPECT_LT(span->lane, 2);
  }
  // The lane matches the worker recorded in the structured trace.
  for (const JobTrace &job : outcome.trace.jobs) {
    std::string name =
        "job:" + job.kernel + ":" + flowKindName(job.kind);
    auto it = std::find_if(jobSpans.begin(), jobSpans.end(),
                           [&](const tel::TraceEvent *e) {
                             return e->name == name;
                           });
    ASSERT_NE(it, jobSpans.end()) << name;
    EXPECT_EQ((*it)->lane, job.worker);
  }

  // Flow stages nest inside their job's span (same lane, contained
  // interval), and lir pass spans nest inside the bridge stage.
  auto within = [](const tel::TraceEvent &outer, const tel::TraceEvent &e) {
    return e.lane == outer.lane && e.startUs >= outer.startUs &&
           e.startUs + e.durUs <= outer.startUs + outer.durUs;
  };
  size_t nestedStages = 0;
  for (const tel::TraceEvent &event : events) {
    if (event.category != "flow-stage")
      continue;
    bool inSomeJob = std::any_of(jobSpans.begin(), jobSpans.end(),
                                 [&](const tel::TraceEvent *job) {
                                   return within(*job, event);
                                 });
    EXPECT_TRUE(inSomeJob) << event.name;
    ++nestedStages;
  }
  EXPECT_EQ(nestedStages, 4u * 3u); // mlirOpt + bridge + synth per job

  // The worker lanes are named in the exported trace, and the whole
  // document is valid JSON.
  std::string json = tracer.chromeTraceJson();
  std::string error;
  EXPECT_TRUE(json::validate(json, &error)) << error;
  // Every lane that actually executed a job is named after its worker.
  // (Jobs this fast can all land on one worker, so only used lanes are
  // guaranteed a name.)
  for (const tel::TraceEvent *span : jobSpans) {
    std::string laneName = "worker " + std::to_string(span->lane);
    EXPECT_NE(json.find(laneName), std::string::npos) << laneName;
  }
  tracer.reset();
}

TEST(BatchRunner, FailedJobEmitsInstantMarker) {
  namespace tel = mha::telemetry;
  tel::Tracer &tracer = tel::Tracer::global();
  tracer.setEnabled(true);
  tracer.reset();

  KernelSpec bomb = bombKernel();
  std::vector<BatchJob> jobs;
  jobs.push_back(makeJob(&bomb, FlowKind::Adaptor));
  runBatch(jobs);
  tracer.setEnabled(false);

  std::vector<tel::TraceEvent> events = tracer.events();
  auto it = std::find_if(events.begin(), events.end(),
                         [](const tel::TraceEvent &e) {
                           return e.phase == 'i' &&
                                  e.name == "job-failed:bomb";
                         });
  EXPECT_NE(it, events.end());
  tracer.reset();
}
