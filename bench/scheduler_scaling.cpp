// Scheduler scaling — how synthesis cost grows with loop-body size.
//
// One generated 4096-trip 3-tap FIR loop, pipelined at II=1, runs through
// the adaptor flow at unroll = partition in {1, 2, 4, ..., 512}. The
// backend unrolls the loop, so the pipelined body the modulo scheduler
// sees grows linearly with the factor. Each row records the flow's wall
// time, the synthesis stage's time, the instructions scheduled, the
// synthesis time per scheduled instruction and the peak RSS.
//
// Every row runs in its own forked child, so the peak RSS is that row's
// alone; the wall and synthesis times are the median of three runs in
// that child (after one untimed warm-up run). Exits non-zero when the
// unroll-512 row takes more than 0.5 s of flow wall time or more than
// 64 MiB of peak RSS: the scheduler must stay near-linear in body size.
// --label tags the rows (e.g. the commit measured), so rows from two
// builds can sit side by side in one BENCH_scheduler.json.
//
//   scheduler_scaling [--label=NAME] [--json=FILE]
#include "BenchCommon.h"


#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mha;
using namespace mha::bench;

namespace {

constexpr int64_t kTrip = 4096;
constexpr int64_t kReps = 3;
constexpr int64_t kGateUnroll = 512;
constexpr double kGateMs = 500;
constexpr double kGateRssMb = 64;

struct RowResult {
  double wallMs = 0;
  double synthMs = 0;
  int64_t insts = 0;
};

/// Runs one design point kReps times after a warm-up run and returns the
/// median times. Aborts on a failed flow.
RowResult measure(const flow::KernelSpec &spec, int64_t unroll) {
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = unroll;
  config.partitionFactor = unroll;
  std::vector<double> wall, synth;
  RowResult row;
  for (int64_t rep = 0; rep <= kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    flow::FlowResult result =
        mustRun(flow::runAdaptorFlow(spec, config), spec.name.c_str());
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (rep == 0) { // warm-up
      for (lir::Function *fn : result.module()->functions())
        for (lir::BasicBlock *bb : fn->blockPtrs())
          row.insts += static_cast<int64_t>(bb->size());
      continue;
    }
    wall.push_back(ms);
    synth.push_back(result.timings.synthMs);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  row.wallMs = median(wall);
  row.synthMs = median(synth);
  return row;
}

} // namespace

int main(int argc, char **argv) {
  JsonReport report("scheduler_scaling", argc, argv);
  std::string label;
  if (!parseLabel(argc, argv, "scheduler_scaling", label))
    return 2;

  const flow::KernelSpec spec =
      flow::makeLongTripFir("scaling", kTrip, {0.3125, 0.5625, 0.8125});

  std::printf("Scheduler scaling: %lld-trip 3-tap FIR, II=1, unroll = "
              "partition (median of %lld)\n",
              static_cast<long long>(kTrip), static_cast<long long>(kReps));
  std::printf("%8s %12s %12s %10s %10s %10s\n", "unroll", "wall ms",
              "synth ms", "insts", "us/inst", "rss MiB");
  printRule(67);

  bool pass = false;
  for (int64_t unroll = 1; unroll <= kGateUnroll; unroll *= 2) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      RowResult row = measure(spec, unroll);
      ssize_t written = write(fds[1], &row, sizeof(row));
      _exit(written == static_cast<ssize_t>(sizeof(row)) ? 0 : 1);
    }
    close(fds[1]);
    RowResult row;
    ssize_t got = read(fds[0], &row, sizeof(row));
    close(fds[0]);
    int status = 0;
    struct rusage usage {};
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || got != static_cast<ssize_t>(sizeof(row))) {
      std::fprintf(stderr, "scheduler_scaling: unroll %lld run failed\n",
                   static_cast<long long>(unroll));
      return 1;
    }
    double rssMb = static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
    double usPerInst =
        row.insts > 0 ? 1000.0 * row.synthMs / static_cast<double>(row.insts)
                      : 0.0;
    std::printf("%8lld %12.2f %12.2f %10lld %10.2f %10.1f\n",
                static_cast<long long>(unroll), row.wallMs, row.synthMs,
                static_cast<long long>(row.insts), usPerInst, rssMb);
    report.beginRow();
    report.field("build", label);
    report.field("unroll", unroll);
    report.field("wall_ms", row.wallMs);
    report.field("synth_ms", row.synthMs);
    report.field("insts_scheduled", row.insts);
    report.field("us_per_inst", usPerInst);
    report.field("peak_rss_mb", rssMb);
    if (unroll == kGateUnroll)
      pass = row.wallMs <= kGateMs && rssMb <= kGateRssMb;
  }
  std::printf("unroll %lld gate: <= %.0f ms and <= %.0f MiB: %s\n",
              static_cast<long long>(kGateUnroll), kGateMs, kGateRssMb,
              pass ? "PASS" : "FAIL");
  std::fflush(stdout);
  return report.finish(pass ? 0 : 1);
}
