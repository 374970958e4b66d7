// mha-serve throughput — the compile-as-a-service daemon under concurrent
// clients, with the request mix a long-lived daemon actually sees:
//
//  * cold — every client submits distinct (kernel, II) configurations
//    against an empty StageCache; per-request latency is measured at the
//    client (queue + compile + framing).
//  * warm — the identical requests again: every flow must be served from
//    the whole-pipeline cache, and every result event must be
//    byte-identical to its cold twin (ids substituted out). A daemon that
//    returns different bytes for the same design point is broken, so
//    mismatches fail the bench, not just a counter.
//  * invalid — unknown kernels and malformed frames; the daemon must
//    answer every one with a typed error on a surviving connection.
//  * overload — a second daemon with one worker and a two-slot queue is
//    pinned by a slow request, then hit with a burst; the surplus must be
//    rejected with the typed `busy` error, never dropped or blocked.
//
// The bench fails (exit 1) when the warm p50 is not at least 5x below the
// cold p50, when any warm result differs from its cold twin, or when the
// overload burst produces no typed rejection — the claims EXPERIMENTS.md
// makes are checked, not assumed.
#include "BenchCommon.h"

#include "flow/StageCache.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace mha;
using namespace mha::bench;

namespace {

struct Job {
  std::string kernel;
  int64_t ii = 1;
  int64_t unroll = 1;
};

struct Sample {
  std::string key;        // kernel-ii, stable across cold/warm
  int64_t latencyUs = 0;  // client-observed wall time
  bool ok = false;
  bool cached = false;
  std::string code;       // typed error code when !ok
  std::string resultLine; // raw result event (ids substituted later)
};

struct PhaseStats {
  int requests = 0;
  int ok = 0;
  int errors = 0;
  int busy = 0;
  double wallMs = 0;
  int64_t p50Us = 0;
  int64_t p99Us = 0;
};

std::string benchSocketPath(const char *tag) {
  return strfmt("/tmp/mha_serve_bench_%d_%s.sock", static_cast<int>(getpid()),
                tag);
}

int64_t percentile(std::vector<int64_t> sorted, int pct) {
  if (sorted.empty())
    return 0;
  std::sort(sorted.begin(), sorted.end());
  size_t index = (sorted.size() * static_cast<size_t>(pct)) / 100;
  if (index >= sorted.size())
    index = sorted.size() - 1;
  return sorted[index];
}

/// The result event with its request id replaced by a fixed token, so a
/// cold and a warm line for the same design point can be byte-compared.
std::string withoutId(std::string line, const std::string &id) {
  std::string needle = "\"id\": \"" + id + "\"";
  size_t pos = line.find(needle);
  if (pos != std::string::npos)
    line.replace(pos, needle.size(), "\"id\": \"X\"");
  return line;
}

/// One client worker: runs its share of the request list over a private
/// connection, recording client-observed latency per request.
void runClient(const std::string &socket, const std::string &idPrefix,
               const std::vector<Job> &jobs,
               std::vector<Sample> &out) {
  serve::Client client;
  if (!client.connect(socket)) {
    std::fprintf(stderr, "BENCH FAILURE: client cannot connect to %s\n",
                 socket.c_str());
    std::exit(1);
  }
  for (const Job &job : jobs) {
    serve::Request req;
    req.id = strfmt("%s-%s-%lld-%lld", idPrefix.c_str(), job.kernel.c_str(),
                    static_cast<long long>(job.ii),
                    static_cast<long long>(job.unroll));
    req.kernel = job.kernel;
    req.config.pipelineII = job.ii;
    req.config.unrollFactor = job.unroll;
    auto start = std::chrono::steady_clock::now();
    serve::Client::CompileOutcome outcome = client.runCompile(req);
    Sample sample;
    sample.key = strfmt("%s-%lld-%lld", job.kernel.c_str(),
                        static_cast<long long>(job.ii),
                        static_cast<long long>(job.unroll));
    sample.latencyUs = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    if (!outcome.transportOk) {
      std::fprintf(stderr, "BENCH FAILURE: transport error for %s: %s\n",
                   req.id.c_str(), outcome.error.c_str());
      std::exit(1);
    }
    sample.ok = outcome.ok;
    sample.cached = outcome.cached;
    sample.code = outcome.code;
    sample.resultLine = withoutId(outcome.resultLine, req.id);
    out.push_back(std::move(sample));
  }
}

/// Fans the job list across `clients` threads and aggregates the samples.
std::vector<Sample> runPhase(const std::string &socket, const char *idPrefix,
                             int clients,
                             const std::vector<Job> &jobs,
                             double &wallMs) {
  std::vector<std::vector<Sample>> perClient(clients);
  std::vector<std::vector<Job>> shares(clients);
  for (size_t i = 0; i < jobs.size(); ++i)
    shares[i % clients].push_back(jobs[i]);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      runClient(socket, strfmt("%s%d", idPrefix, c), shares[c],
                perClient[c]);
    });
  for (std::thread &t : threads)
    t.join();
  wallMs = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  std::vector<Sample> all;
  for (std::vector<Sample> &chunk : perClient)
    for (Sample &sample : chunk)
      all.push_back(std::move(sample));
  return all;
}

PhaseStats summarize(const std::vector<Sample> &samples, double wallMs) {
  PhaseStats stats;
  stats.requests = static_cast<int>(samples.size());
  stats.wallMs = wallMs;
  std::vector<int64_t> latencies;
  for (const Sample &sample : samples) {
    latencies.push_back(sample.latencyUs);
    if (sample.ok)
      stats.ok++;
    else
      stats.errors++;
    if (sample.code == serve::errc::Busy)
      stats.busy++;
  }
  stats.p50Us = percentile(latencies, 50);
  stats.p99Us = percentile(latencies, 99);
  return stats;
}

void printPhase(const char *phase, const PhaseStats &stats, int mismatches) {
  double rps = stats.wallMs > 0 ? stats.requests / (stats.wallMs / 1000.0)
                                : 0.0;
  std::printf("%-9s %5d %5d %5d %5d %9.1f %9.0f %9lld %9lld %10d\n", phase,
              stats.requests, stats.ok, stats.errors, stats.busy,
              stats.wallMs, rps, static_cast<long long>(stats.p50Us),
              static_cast<long long>(stats.p99Us), mismatches);
}

void reportPhase(JsonReport &report, const char *phase,
                 const PhaseStats &stats, int mismatches) {
  double rps = stats.wallMs > 0 ? stats.requests / (stats.wallMs / 1000.0)
                                : 0.0;
  report.beginRow();
  report.field("phase", phase);
  report.field("requests", stats.requests);
  report.field("ok", stats.ok);
  report.field("errors", stats.errors);
  report.field("busy", stats.busy);
  report.field("wall_ms", stats.wallMs);
  report.field("throughput_rps", rps);
  report.field("p50_us", stats.p50Us);
  report.field("p99_us", stats.p99Us);
  report.field("result_mismatches", mismatches);
}

} // namespace

int main(int argc, char **argv) {
  JsonReport report("serve_throughput", argc, argv);
  const int clients = 4;

  std::printf("mha-serve throughput: %d concurrent clients\n", clients);
  std::printf("%-9s %5s %5s %5s %5s %9s %9s %9s %9s %10s\n", "phase", "req",
              "ok", "err", "busy", "wall(ms)", "req/s", "p50(us)", "p99(us)",
              "mismatch");
  printRule(88);

  serve::ServerOptions options;
  options.socketPath = benchSocketPath("main");
  options.maxInflight = 2;
  options.maxQueue = 64;
  serve::Server server(options);
  if (!server.start()) {
    std::fprintf(stderr, "BENCH FAILURE: cannot start daemon on %s\n",
                 options.socketPath.c_str());
    return 1;
  }

  // Distinct design points so the cold phase never accidentally warms
  // itself: every built-in kernel at two IIs plus one unrolled variant
  // (the unrolled backend work is where a cold compile earns its keep).
  std::vector<Job> jobs;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    jobs.push_back({spec.name, 1, 1});
    jobs.push_back({spec.name, 2, 1});
    jobs.push_back({spec.name, 1, 8});
  }

  flow::StageCache::global().clear();
  double coldWallMs = 0;
  std::vector<Sample> cold =
      runPhase(options.socketPath, "c", clients, jobs, coldWallMs);
  PhaseStats coldStats = summarize(cold, coldWallMs);
  printPhase("cold", coldStats, 0);
  reportPhase(report, "cold", coldStats, 0);

  double warmWallMs = 0;
  std::vector<Sample> warm =
      runPhase(options.socketPath, "w", clients, jobs, warmWallMs);
  PhaseStats warmStats = summarize(warm, warmWallMs);

  // Every warm result must byte-match its cold twin (ids already
  // substituted out) and must have been served from the cache.
  std::map<std::string, std::string> coldByKey;
  for (const Sample &sample : cold)
    coldByKey[sample.key] = sample.resultLine;
  int mismatches = 0, uncached = 0;
  for (const Sample &sample : warm) {
    if (coldByKey[sample.key] != sample.resultLine)
      mismatches++;
    if (!sample.cached)
      uncached++;
  }
  printPhase("warm", warmStats, mismatches);
  reportPhase(report, "warm", warmStats, mismatches);

  // Invalid mix: unknown kernels (typed unknown_kernel) and malformed
  // frames (typed parse_error) — every one answered, no connection lost.
  int invalidTyped = 0, invalidTotal = 0;
  double invalidWallMs = 0;
  {
    auto start = std::chrono::steady_clock::now();
    serve::Client client;
    if (!client.connect(options.socketPath)) {
      std::fprintf(stderr, "BENCH FAILURE: invalid-phase connect failed\n");
      return 1;
    }
    for (int i = 0; i < 8; ++i) {
      serve::Request req;
      req.id = strfmt("bad%d", i);
      req.kernel = strfmt("no-such-kernel-%d", i);
      serve::Client::CompileOutcome outcome = client.runCompile(req);
      invalidTotal++;
      if (outcome.transportOk && !outcome.ok &&
          outcome.code == serve::errc::UnknownKernel)
        invalidTyped++;
    }
    for (int i = 0; i < 8; ++i) {
      client.sendLine("{\"this is\": not json");
      std::string line;
      bool sawDone = false;
      while (client.readLine(line)) {
        if (line.find("\"event\": \"done\"") != std::string::npos) {
          sawDone = line.find(serve::errc::ParseError) != std::string::npos;
          break;
        }
      }
      invalidTotal++;
      if (sawDone)
        invalidTyped++;
    }
    invalidWallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  PhaseStats invalidStats;
  invalidStats.requests = invalidTotal;
  invalidStats.errors = invalidTyped;
  invalidStats.wallMs = invalidWallMs;
  printPhase("invalid", invalidStats, 0);
  reportPhase(report, "invalid", invalidStats, 0);

  server.stop();

  // Overload: one worker, two queue slots. Pin the worker with a slow
  // request, then burst eight fast ones: two fit in the queue, the rest
  // must bounce with the typed busy error.
  serve::ServerOptions overloadOptions;
  overloadOptions.socketPath = benchSocketPath("overload");
  overloadOptions.maxInflight = 1;
  overloadOptions.maxQueue = 2;
  serve::Server overloadServer(overloadOptions);
  if (!overloadServer.start()) {
    std::fprintf(stderr, "BENCH FAILURE: cannot start overload daemon\n");
    return 1;
  }
  int burstBusy = 0, burstOk = 0;
  double overloadWallMs = 0;
  std::vector<int64_t> burstLatencies;
  {
    auto start = std::chrono::steady_clock::now();
    serve::Client client;
    if (!client.connect(overloadOptions.socketPath)) {
      std::fprintf(stderr, "BENCH FAILURE: overload connect failed\n");
      return 1;
    }
    client.sendLine(serve::renderCompileRequest(
        "blocker", serve::slowBlockerRequest("blocker")));
    // Wait for the worker to be demonstrably inside the blocker's flow.
    std::string line;
    do {
      if (!client.readLine(line)) {
        std::fprintf(stderr, "BENCH FAILURE: overload daemon went away\n");
        return 1;
      }
    } while (line.find("\"event\": \"stage\"") == std::string::npos);
    for (int i = 0; i < 8; ++i) {
      serve::Request req;
      req.id = strfmt("burst%d", i);
      req.kernel = "fir";
      client.sendLine(serve::renderCompileRequest(req.id, req));
    }
    // Collect the nine done events (blocker + burst).
    int done = 0;
    std::map<std::string, int64_t> doneAtUs;
    while (done < 9 && client.readLine(line)) {
      if (line.find("\"event\": \"done\"") == std::string::npos)
        continue;
      done++;
      if (line.find("\"id\": \"burst") == std::string::npos)
        continue;
      if (line.find("\"code\": \"busy\"") != std::string::npos)
        burstBusy++;
      else if (line.find("\"status\": \"ok\"") != std::string::npos)
        burstOk++;
    }
    overloadWallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  overloadServer.stop();
  PhaseStats overloadStats;
  overloadStats.requests = 9;
  overloadStats.ok = burstOk + 1;
  overloadStats.errors = burstBusy;
  overloadStats.busy = burstBusy;
  overloadStats.wallMs = overloadWallMs;
  printPhase("overload", overloadStats, 0);
  reportPhase(report, "overload", overloadStats, 0);

  printRule(88);
  double speedup = warmStats.p50Us > 0
                       ? static_cast<double>(coldStats.p50Us) /
                             static_cast<double>(warmStats.p50Us)
                       : 0.0;
  std::printf("warm speedup: p50 %.1fx (cold %lld us -> warm %lld us)\n",
              speedup, static_cast<long long>(coldStats.p50Us),
              static_cast<long long>(warmStats.p50Us));
  report.beginRow();
  report.field("phase", "summary");
  report.field("warm_p50_speedup", speedup);
  report.field("warm_uncached", uncached);
  report.field("invalid_typed", invalidTyped);
  report.field("invalid_total", invalidTotal);

  int status = 0;
  if (coldStats.ok != coldStats.requests ||
      warmStats.ok != warmStats.requests) {
    std::fprintf(stderr, "BENCH FAILURE: cold/warm phase had errors\n");
    status = 1;
  }
  if (warmStats.p50Us * 5 > coldStats.p50Us) {
    std::fprintf(stderr,
                 "BENCH FAILURE: warm p50 (%lld us) not 5x below cold "
                 "(%lld us)\n",
                 static_cast<long long>(warmStats.p50Us),
                 static_cast<long long>(coldStats.p50Us));
    status = 1;
  }
  if (mismatches > 0 || uncached > 0) {
    std::fprintf(stderr,
                 "BENCH FAILURE: %d warm results mismatched, %d were not "
                 "cache hits\n",
                 mismatches, uncached);
    status = 1;
  }
  if (invalidTyped != invalidTotal) {
    std::fprintf(stderr,
                 "BENCH FAILURE: %d/%d invalid requests got a typed error\n",
                 invalidTyped, invalidTotal);
    status = 1;
  }
  if (burstBusy < 1) {
    std::fprintf(stderr, "BENCH FAILURE: overload burst produced no typed "
                         "busy rejection\n");
    status = 1;
  }
  return report.finish(status);
}
