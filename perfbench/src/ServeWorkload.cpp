// serve-mix: an in-process serve::Server with two compile workers, driven
// by two closed-loop client connections over a Unix socket. Each client
// sends its next request only after the previous one is done. The seeded
// streams (see ServeStream) go in rounds: first-time design points (cold
// misses) plus estimate-only requests, then the same compile requests
// again (warm reads). The StageCache byte cap is smaller than the working
// set of a run, so stores and evictions run beside the reads.
#include "Workloads.h"

#include "flow/StageCache.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "dse/Evaluator.h"
#include "support/StringUtils.h"

#include <map>
#include <set>
#include <thread>

#include <unistd.h>

namespace perfbench {

using namespace mha;

namespace {

constexpr int kClients = 2;
/// The StageCache byte cap, in warm-up batches (one round's compile
/// points): each client has at most one round between a cold request and
/// its warm twin, and the cap holds twice that, so warm twins stay cached
/// while the points of older rounds are evicted.
constexpr int64_t kCapBatches = 2 * kClients;

struct Sample {
  double ms = 0;
  double endMs = 0; // ms into the timed region
  std::string key;
  std::string group; // kernel and flow: see quietGroup()
  bool traced = false;
  bool cached = false;
  bool estimate = false;
};

/// The first answer seen for one design point; every later answer must be
/// byte-identical once ids are removed.
struct Answer {
  serve::Request request;
  std::string line; // result line with its id replaced by "X"
  int64_t ops = 0;
  bool failed = false;
};

std::string withoutId(std::string line, const std::string &id) {
  std::string needle = "\"id\": \"" + id + "\"";
  size_t pos = line.find(needle);
  if (pos != std::string::npos)
    line.replace(pos, needle.size(), "\"id\": \"X\"");
  return line;
}

std::vector<double> pick(const std::vector<Sample> &samples, bool estimate,
                         int cached) {
  std::vector<double> out;
  for (const Sample &s : samples)
    if (s.estimate == estimate && (cached < 0 || s.cached == (cached == 1)))
      out.push_back(s.ms);
  return out;
}

/// Requests of one kernel and flow, answered from the cache, compiled, or
/// estimated, cost about the same; quietWindows() compares them with one
/// another. The knobs are left out, since most cold points occur once.
std::string quietGroup(const serve::Request &req, bool cached) {
  return strfmt("%s/%s/%s", req.kernel.c_str(),
                req.flowKind == flow::FlowKind::Adaptor ? "adaptor" : "hls-c++",
                req.estimate ? "estimate" : cached ? "warm" : "cold");
}

DesignPoint pointOf(const serve::Request &req) {
  DesignPoint point;
  point.spec = flow::findKernel(req.kernel);
  point.config = req.config;
  point.kind = req.flowKind;
  return point;
}

} // namespace

int runServeMix(Context &ctx) {
  const Options &opt = ctx.options();
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  serve::ServerOptions so;
  so.socketPath = strfmt("%s/serve-%d.sock", opt.workDir.c_str(),
                         static_cast<int>(getpid()));
  so.maxInflight = kClients;
  so.maxQueue = 8;
  serve::Server server(so);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "perfbench: cannot start the server: %s\n",
                 error.c_str());
    return 1;
  }
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<serve::Client>());
    if (!clients.back()->connect(so.socketPath, &error)) {
      std::fprintf(stderr, "perfbench: cannot connect: %s\n", error.c_str());
      clients.clear();
      server.stop();
      return 1;
    }
  }

  std::mutex answersMutex;
  std::map<std::string, Answer> answers;
  auto remember = [&](const serve::Request &req, const std::string &key,
                      std::string line, int64_t ops) {
    std::lock_guard<std::mutex> lock(answersMutex);
    auto [it, inserted] = answers.try_emplace(key);
    Answer &answer = it->second;
    answer.ops += ops;
    if (inserted) {
      answer.request = req;
      answer.line = std::move(line);
    } else if (line != answer.line) {
      answer.failed = true;
      ctx.fail(ops, key + ": reply differs from its first answer");
    }
  };

  // Warm-up: one batch of cold compiles, so the timed region starts with
  // the cache in use the way a long-running daemon's is. The cap is then
  // sized from the bytes that batch stored.
  std::vector<serve::Request> warmup = ServeStream::warmupBatch();
  for (size_t i = 0; i < warmup.size(); ++i) {
    serve::Request req = warmup[i];
    req.id = strfmt("warm-%zu", i);
    serve::Client::CompileOutcome outcome = clients[0]->runCompile(req);
    if (!outcome.transportOk || !outcome.ok) {
      ctx.fail(0, "warm-up " + requestKey(req) + ": " + outcome.code + " " +
                      outcome.error);
      continue;
    }
    remember(req, requestKey(req), withoutId(outcome.resultLine, req.id), 0);
  }
  int64_t capBytes = kCapBatches * cache.counters().bytes();
  cache.setLimitBytes(capBytes);
  if (!ctx.ready()) {
    clients.clear();
    server.stop();
    return 0;
  }

  flow::StageCache::Counters before = cache.counters();
  serve::Server::Stats statsBefore = server.stats();
  std::vector<std::vector<Sample>> perClient(kClients);
  std::vector<double> parseUs;
  std::mutex parseMutex;
  Clock::time_point start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(opt.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      ServeStream stream(opt.seed, c);
      serve::Client &client = *clients[c];
      for (int64_t n = 0; Clock::now() < deadline; ++n) {
        serve::Request req = stream.next();
        Sample sample;
        sample.key = requestKey(req);
        sample.estimate = req.estimate;
        sample.traced = opt.trace && n % 2 == 1;
        serve::Client::CompileOutcome outcome;
        Clock::time_point t0 = Clock::now();
        if (sample.traced) {
          int64_t op = c * 1000000000ll + n;
          ctx.recorder().labelOp(op, sample.key);
          Recorder::Span span(ctx.recorder(), "serve.request", op);
          outcome = client.runCompile(req);
        } else {
          outcome = client.runCompile(req);
        }
        Clock::time_point t1 = Clock::now();
        sample.ms = msBetween(t0, t1);
        sample.endMs = msBetween(start, t1);
        sample.cached = outcome.cached;
        sample.group = quietGroup(req, outcome.cached);
        perClient[c].push_back(sample);
        ctx.attempted(1);

        if (opt.trace) {
          std::string line = serve::renderCompileRequest(req.id, req);
          Recorder::Span span(ctx.recorder(), "serve.parse");
          serve::ParsedRequest parsed = serve::parseRequest(line);
          double us = 1000.0 * span.finish();
          if (!parsed.ok)
            ctx.fail(1, sample.key + ": request does not parse back");
          std::lock_guard<std::mutex> lock(parseMutex);
          parseUs.push_back(us);
        }
        if (!outcome.transportOk || !outcome.ok) {
          ctx.fail(1, sample.key + ": " + outcome.code + " " + outcome.error);
          continue;
        }
        remember(req, sample.key, withoutId(outcome.resultLine, req.id), 1);
      }
    });
  for (std::thread &t : threads)
    t.join();
  double peakRss = Context::peakRssMb();
  flow::StageCache::Counters after = cache.counters();
  serve::Server::Stats statsAfter = server.stats();

  std::vector<Sample> samples;
  for (const std::vector<Sample> &chunk : perClient)
    samples.insert(samples.end(), chunk.begin(), chunk.end());
  // The end-to-end timings take the requests of the run's quiet windows;
  // the traced run's figures take every request.
  std::vector<TimedOp> timed;
  for (const Sample &s : samples)
    timed.push_back({s.endMs, s.ms, s.group});
  QuietWindows quiet = quietWindows(timed);
  if (!opt.trace) {
    std::vector<Sample> kept;
    for (size_t i = 0; i < samples.size(); ++i)
      if (quiet.kept[i])
        kept.push_back(std::move(samples[i]));
    samples = std::move(kept);
  }
  std::vector<double> opMs;
  for (const Sample &s : samples)
    opMs.push_back(s.ms);
  std::vector<double> warm = pick(samples, false, 1);
  std::vector<double> cold = pick(samples, false, 0);
  std::vector<double> estimates = pick(samples, true, -1);
  // About 2000 warm and 2000 cold requests in the quiet windows of a 25-s
  // run: cold p95 leaves about a hundred samples beyond it. Cold p99 is set
  // by the few costliest knob draws and spread 0.22 of its median over
  // five runs.
  Tail warmTail = tail(warm, 99), coldTail = tail(cold, 95);
  int64_t hits = after.hits() - before.hits();
  int64_t lookups = hits + after.misses() - before.misses();

  // Traced extras, outside the request stream: the in-process warm flow
  // and render cost of the first design points served warm (one batch's
  // worth), for serve.overhead_ms_p50.
  std::map<std::string, double> warmFlowMs;
  std::vector<double> renderUs;
  if (opt.trace) {
    std::set<std::string> chosen;
    std::vector<serve::Request> probes;
    for (const Sample &s : samples)
      if (!s.estimate && s.cached && probes.size() < warmup.size() &&
          answers.count(s.key) && chosen.insert(s.key).second)
        probes.push_back(answers.at(s.key).request);
    flow::FlowOptions fo;
    fo.useStageCache = true;
    for (const serve::Request &req : probes) {
      DesignPoint point = pointOf(req);
      std::vector<double> flowMs;
      for (int rep = 0; rep < 5; ++rep) {
        Recorder::Span span(ctx.recorder(), "flow.warm_flow");
        flow::FlowResult result =
            req.flowKind == flow::FlowKind::Adaptor
                ? flow::runAdaptorFlow(*point.spec, req.config, fo)
                : flow::runHlsCppFlow(*point.spec, req.config, fo);
        double ms = span.finish();
        if (!result.ok || !result.synthFromCache)
          continue; // evicted: this call refilled the cache
        flowMs.push_back(ms);
        Recorder::Span render(ctx.recorder(), "serve.render");
        std::string line = serve::renderResult(req.id, req, result);
        renderUs.push_back(1000.0 * render.finish());
      }
      if (!flowMs.empty())
        warmFlowMs[requestKey(req)] = median(flowMs);
    }
  }

  // Correctness gate: every distinct answer against the program run
  // in-process with the cache off, co-simulated.
  std::vector<Answer *> toCheck;
  for (auto &[key, answer] : answers)
    if (!answer.failed)
      toCheck.push_back(&answer);
  std::vector<Qor> qors(toCheck.size());
  std::map<std::string, std::unique_ptr<dse::Evaluator>> estimators;
  for (Answer *answer : toCheck)
    if (answer->request.estimate && !estimators.count(answer->request.kernel)) {
      dse::EvaluatorOptions eo;
      eo.numThreads = 1;
      estimators[answer->request.kernel] = std::make_unique<dse::Evaluator>(
          *flow::findKernel(answer->request.kernel), eo);
    }
  parallelFor(toCheck.size(), 4, [&](size_t i) {
    Answer &answer = *toCheck[i];
    serve::Request req = answer.request;
    std::string expected;
    if (req.estimate) {
      dse::QoR q = estimators.at(req.kernel)->estimate(req.config);
      expected = serve::renderEstimateResult("X", req, q.latencyCycles, q.dsp,
                                             q.bram, q.lut, q.ff);
    } else {
      flow::FlowResult result;
      std::string why = checkPoint(ctx, pointOf(req), "", result);
      if (!why.empty()) {
        ctx.fail(answer.ops, why);
        return;
      }
      qors[i] = qorOf(result);
      expected = serve::renderResult("X", req, result);
    }
    if (expected != answer.line)
      ctx.fail(answer.ops, requestKey(req) +
                               ": served reply differs from the in-process "
                               "flow's");
  });
  clients.clear();
  server.stop();

  ctx.note(strfmt("%zu requests: %zu warm, %zu cold, %zu estimate-only; "
                  "%zu distinct design points",
                  samples.size(), warm.size(), cold.size(), estimates.size(),
                  answers.size()));
  ctx.note(strfmt("warm_ms_p50 %.4f ms; warm_ms_tail %s", median(warm),
                  describeTail(warmTail, "ms").c_str()));
  ctx.note(strfmt("cold_ms_p50 %.4f ms; cold_ms_tail %s", median(cold),
                  describeTail(coldTail, "ms").c_str()));
  ctx.note(strfmt("StageCache hit rate %.4f over %lld lookups, %lld "
                  "evictions, %lld bytes resident (cap %lld = %lld warm-up "
                  "batches)",
                  ratio(double(hits), double(lookups)),
                  static_cast<long long>(lookups),
                  static_cast<long long>(after.evictions() -
                                         before.evictions()),
                  static_cast<long long>(after.bytes()),
                  static_cast<long long>(capBytes),
                  static_cast<long long>(kCapBatches)));

  if (opt.trace) {
    ctx.fillLayerMetrics();
    MetricTable &m = ctx.metrics();
    m.set("serve.warm_ms_p50", median(warm), "ms");
    m.set("serve.warm_ms_tail", warmTail.value, "ms");
    m.set("serve.cold_ms_p50", median(cold), "ms");
    m.set("serve.cold_ms_tail", coldTail.value, "ms");
    m.set("flow.cache_hit_rate", ratio(double(hits), double(lookups)), "ratio");
    m.set("flow.cache_evictions",
          double(after.evictions() - before.evictions()), "count");
    m.set("flow.cache_bytes", double(after.bytes()), "bytes");
    m.set("serve.admitted", double(statsAfter.admitted - statsBefore.admitted),
          "count");
    m.set("serve.busy",
          double(statsAfter.rejectedBusy - statsBefore.rejectedBusy), "count");
    m.set("serve.parse_us", median(parseUs), "us");
    m.set("serve.render_us", median(renderUs), "us");
    std::vector<double> warmFlow, overhead;
    for (const Sample &s : samples) {
      auto it = warmFlowMs.find(s.key);
      if (s.estimate || !s.cached || it == warmFlowMs.end())
        continue;
      warmFlow.push_back(it->second);
      overhead.push_back(s.ms - it->second);
    }
    m.set("flow.warm_flow_ms", median(warmFlow), "ms");
    m.set("serve.overhead_ms_p50", median(overhead), "ms");
    std::vector<double> untraced, traced;
    for (const Sample &s : samples)
      (s.traced ? traced : untraced).push_back(s.ms);
    ctx.setTraceOverhead(untraced, traced);
    return 0;
  }
  // QoR over the warm-up batch, the same design points in every run, so
  // it depends neither on the seed nor on how many rounds the run got
  // through.
  std::map<std::string, Qor> qorByKey;
  for (size_t i = 0; i < toCheck.size(); ++i)
    qorByKey[requestKey(toCheck[i]->request)] = qors[i];
  std::vector<double> latency, lut;
  for (const serve::Request &req : warmup) {
    const Qor &q = qorByKey[requestKey(req)];
    if (q.latency > 0) {
      latency.push_back(q.latency);
      lut.push_back(q.lut);
    }
  }
  // op_ms_p50 is the warm requests' median and op_ms_tail the cold
  // misses' p95, so each describes the requests it names whatever share
  // of the traffic they are.
  ctx.setOpMetrics(opMs, median(warm), coldTail, quiet,
                   double(opMs.size()), latency, lut, peakRss);
  return 0;
}

} // namespace perfbench
