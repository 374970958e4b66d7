// BatchRunner.h - parallel flow-execution layer.
//
// The paper's experiment is a batch job: 11 kernels x 2 flows x directive
// sweeps. runBatch() takes a list of (kernel, config, flow) jobs, runs
// them across a ThreadPool, and returns results in deterministic
// submission order regardless of completion order. Each job is fully
// isolated — the flows construct their own MContext/LContext/
// DiagnosticEngine per call, so jobs share no mutable state — and errors
// are contained per job: a kernel whose flow fails (or throws) is
// recorded as a failed FlowResult with the exception text in
// `diagnostics` and never kills the batch.
//
// Every run produces a structured trace (per-stage timings, adaptor pass
// statistics, accept/reject status, worker/queue occupancy) that renders
// as JSON — the machine-readable record the benches and
// `mha-flow --batch --trace=out.json` dump. The JSON schema is documented
// in DESIGN.md ("Batch trace JSON").
#pragma once

#include "flow/Flow.h"
#include "support/ThreadPool.h"

namespace mha::flow {

/// One unit of batch work: run `spec` with `config` through `kind`.
struct BatchJob {
  const KernelSpec *spec = nullptr;
  KernelConfig config;
  FlowKind kind = FlowKind::Adaptor;
  FlowOptions options;
  /// Free-form tag echoed into the trace (e.g. "baseline", "tuned").
  std::string label;
};

/// Per-job trace record. Wall time is measured inside the job (from the
/// worker thread, around the flow call only), so it excludes queueing and
/// harness overhead — Table 4 relies on that.
struct JobTrace {
  size_t index = 0; // submission order
  std::string kernel;
  std::string label;
  FlowKind kind = FlowKind::Adaptor;
  bool ok = false;
  bool accepted = false;
  double queueMs = 0;           // submit -> start of execution
  double wallMs = 0;            // flow execution only, measured in-job
  int worker = -1;              // pool worker that ran the job
  size_t queueDepthAtStart = 0; // queued jobs when this one started
  StageTimings timings;
  std::vector<StageSpan> spans;
  lir::PassStats adaptorStats;
  std::string error; // first diagnostic line / exception text when failed
};

/// Whole-batch trace: per-job records in submission order plus occupancy.
struct BatchTrace {
  unsigned threads = 0;
  size_t jobCount = 0;
  size_t failures = 0;
  double wallMs = 0;   // whole-batch wall clock (harness view)
  double serialMs = 0; // sum of per-job wall times (the serial cost)
  /// Per-job end-to-end latency (queueMs + wallMs) percentiles, computed
  /// exactly (nearest-rank over the sorted per-job values, not bucketed).
  /// 0 when the batch had no jobs.
  double e2eP50Ms = 0;
  double e2eP90Ms = 0;
  double e2eP99Ms = 0;
  std::vector<JobTrace> jobs;
  std::vector<size_t> jobsPerWorker; // occupancy histogram, one per worker

  /// Renders the trace as JSON (schema "mha.batch-trace.v1", stable key
  /// order) for downstream tooling.
  std::string json() const;
};

struct BatchOptions {
  /// Worker count for the private pool (0 = hardware concurrency).
  /// Ignored when `pool` is set.
  unsigned numThreads = 0;
  /// Run on an existing pool instead of creating a private one.
  ThreadPool *pool = nullptr;
};

struct BatchOutcome {
  /// One FlowResult per job, in submission order (failed jobs included,
  /// with `ok == false` and the failure text in `diagnostics`).
  std::vector<FlowResult> results;
  BatchTrace trace;
};

/// Runs every job across the pool and waits for all of them.
BatchOutcome runBatch(const std::vector<BatchJob> &jobs,
                      const BatchOptions &options = {});

} // namespace mha::flow
