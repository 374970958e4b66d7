// vhls_golden_test.cpp - report identity for the virtual HLS backend.
//
// The scheduler's numbers are the experiments' results, and the DSE
// estimator is calibrated against them, so a change that only makes
// synthesis cheaper must leave every SynthesisReport byte-identical. This
// test pins the adaptor flow's report over a fixed design grid: for each
// point, a 64-bit FNV-1a hash of SynthesisReport::json() must match the
// line recorded in golden/vhls_reports.txt.
//
// The grid: every built-in kernel x II {0,1,2} x unroll {1,4,32} x
// partition {1,2,32}; the dataflow twin of every point on kernels with
// more than one top-level loop nest; and a generated 4096-trip 3-tap
// pipelined FIR at unroll = partition {64,128,256}.
//
// EstimatorGolden pins the DSE estimator's predictions the same way: one
// hash per kernel (and per dataflow setting on multi-nest kernels) over
// the estimateAll QoRs of II {0,1,2,4} x unroll {1,2,4,8,16,32} x
// partition {1,2,4,8,16,32}, recorded in golden/estimator_qors.txt. The
// estimator's error bounds (dse_estimator_test) would let a drift within
// 10% through; this does not.
//
// A change that is *meant* to move reports or estimates regenerates both
// files with
//   MHA_VHLS_GOLDEN_WRITE=1 ./vhls_golden_test
// and says why in its description. A new pin for a change that must not
// move anything is recorded on the commit before that change.
//
// The file also pins RecMII on a hand-built loop whose carried dependence
// closes through a long same-iteration chain.

#include "dse/Evaluator.h"
#include "flow/Flow.h"
#include "flow/Kernels.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "vhls/Vhls.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace mha;

namespace {

struct GoldenPoint {
  std::string key;
  const flow::KernelSpec *spec = nullptr;
  flow::KernelConfig config;
};

std::string pointKey(const std::string &kernel,
                     const flow::KernelConfig &config) {
  return strfmt("%s/ii=%lld,u=%lld,p=%lld%s", kernel.c_str(),
                static_cast<long long>(config.pipelineII),
                static_cast<long long>(config.unrollFactor),
                static_cast<long long>(config.partitionFactor),
                config.dataflow ? ",dataflow" : "");
}

/// Kernels whose function has more than one top-level loop nest, the ones
/// the dataflow directive can change.
bool isMultiNest(const flow::KernelSpec &spec) {
  flow::FlowResult result = flow::runAdaptorFlow(spec, flow::KernelConfig{});
  EXPECT_TRUE(result.ok) << spec.name << ": " << result.diagnostics;
  int topLevel = 0;
  for (const vhls::FunctionReport &fn : result.synth.functions)
    if (fn.name == result.synth.topName)
      for (const vhls::LoopReport &loop : fn.loops)
        topLevel += loop.depth == 1;
  return topLevel > 1;
}

const flow::KernelSpec &longTripFir() {
  static const flow::KernelSpec spec =
      flow::makeLongTripFir("longtrip", 4096, {0.3125, 0.5625, 0.8125});
  return spec;
}

std::vector<GoldenPoint> goldenGrid() {
  std::vector<GoldenPoint> points;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    bool multiNest = isMultiNest(spec);
    for (bool dataflow : {false, true}) {
      if (dataflow && !multiNest)
        continue;
      for (int64_t ii : {0, 1, 2})
        for (int64_t unroll : {1, 4, 32})
          for (int64_t partition : {1, 2, 32}) {
            GoldenPoint point;
            point.spec = &spec;
            point.config.pipelineII = ii;
            point.config.unrollFactor = unroll;
            point.config.partitionFactor = partition;
            point.config.dataflow = dataflow;
            point.key = pointKey(spec.name, point.config);
            points.push_back(point);
          }
    }
  }
  for (int64_t unroll : {64, 128, 256}) {
    GoldenPoint point;
    point.spec = &longTripFir();
    point.config.pipelineII = 1;
    point.config.unrollFactor = unroll;
    point.config.partitionFactor = unroll;
    point.key = pointKey(point.spec->name, point.config);
    points.push_back(point);
  }
  return points;
}

/// Compares `actual` (point -> hash) with golden/`file`, or rewrites the
/// file when MHA_VHLS_GOLDEN_WRITE is set.
void checkGolden(const std::string &file,
                 const std::map<std::string, std::string> &actual) {
  std::string path = std::string(MHA_GOLDEN_DIR) + "/" + file;
  if (std::getenv("MHA_VHLS_GOLDEN_WRITE")) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const auto &[key, hash] : actual)
      out << key << ' ' << hash << '\n';
    GTEST_SKIP() << "wrote " << actual.size() << " hashes to " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::map<std::string, std::string> expected;
  std::string key, hash;
  while (in >> key >> hash)
    expected[key] = hash;
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto &[pointName, want] : expected) {
    auto it = actual.find(pointName);
    if (it == actual.end()) {
      ADD_FAILURE() << "golden point not produced: " << pointName;
      continue;
    }
    EXPECT_EQ(it->second, want) << "result changed: " << pointName;
  }
  for (const auto &[pointName, got] : actual)
    EXPECT_TRUE(expected.count(pointName))
        << "point missing from golden file: " << pointName;
}

std::string hashHex(std::string_view text) {
  return strfmt("%016llx",
                static_cast<unsigned long long>(hashString(text)));
}

} // namespace

TEST(VhlsGolden, ReportsMatchRecordedHashes) {
  std::map<std::string, std::string> actual;
  for (const GoldenPoint &point : goldenGrid()) {
    flow::FlowResult result = flow::runAdaptorFlow(*point.spec, point.config);
    ASSERT_TRUE(result.ok) << point.key << ": " << result.diagnostics;
    actual[point.key] = hashHex(result.synth.json());
  }
  checkGolden("vhls_reports.txt", actual);
}

TEST(EstimatorGolden, EstimatesMatchRecordedHashes) {
  std::map<std::string, std::string> actual;
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    dse::Evaluator evaluator(spec);
    bool multiNest = isMultiNest(spec);
    for (bool dataflow : {false, true}) {
      if (dataflow && !multiNest)
        continue;
      std::vector<flow::KernelConfig> configs;
      for (int64_t ii : {0, 1, 2, 4})
        for (int64_t unroll : {1, 2, 4, 8, 16, 32})
          for (int64_t partition : {1, 2, 4, 8, 16, 32}) {
            flow::KernelConfig config;
            config.pipelineII = ii;
            config.unrollFactor = unroll;
            config.partitionFactor = partition;
            config.dataflow = dataflow;
            configs.push_back(config);
          }
      std::vector<dse::QoR> qors = evaluator.estimateAll(configs);
      std::string text;
      for (size_t i = 0; i < configs.size(); ++i) {
        const dse::QoR &q = qors[i];
        ASSERT_TRUE(q.ok) << pointKey(spec.name, configs[i]) << ": "
                          << q.error;
        text += strfmt("%s lat=%lld dsp=%lld bram=%lld lut=%lld ff=%lld\n",
                       pointKey(spec.name, configs[i]).c_str(),
                       static_cast<long long>(q.latencyCycles),
                       static_cast<long long>(q.dsp),
                       static_cast<long long>(q.bram),
                       static_cast<long long>(q.lut),
                       static_cast<long long>(q.ff));
      }
      actual[spec.name + (dataflow ? "/dataflow" : "")] = hashHex(text);
    }
  }
  checkGolden("estimator_qors.txt", actual);
}

// A carried dependence whose target comes first in the body: the store
// to a[iv+1] feeds the next iteration's load of a[iv], and the value
// loaded reaches that store through three floating-point ops. RecMII must
// count the whole same-iteration path from the load to the store:
// load 2 + fmul 4 + fadd 4 + fmul 4, plus the store's own cycle.
TEST(VhlsRecMII, CarriedTargetBeforeSourceThroughChain) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  std::unique_ptr<lir::Module> module = lir::parseModule(R"(
define void @k([65 x double]* noalias %a) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 64
  br i1 %cmp, label %body, label %exit
body:
  %la = getelementptr [65 x double], [65 x double]* %a, i64 0, i64 %iv
  %x = load double, double* %la
  %m = fmul double %x, 3.0
  %p = fadd double %m, 1.0
  %q = fmul double %p, %p
  %iv1 = add i64 %iv, 1
  %sa = getelementptr [65 x double], [65 x double]* %a, i64 0, i64 %iv1
  store double %q, double* %sa
  %next = add i64 %iv, 1
  br label %header, !xlx.pipeline !{i64 1}
exit:
  ret void
}
)",
                                                          ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  module->flags()["opaque-pointers"] = "false";
  vhls::SynthesisReport report =
      vhls::synthesize(*module, vhls::SynthesisOptions{}, diags);
  ASSERT_TRUE(report.accepted) << diags.str();
  ASSERT_EQ(report.functions.size(), 1u);
  ASSERT_EQ(report.functions[0].loops.size(), 1u);
  const vhls::LoopReport &loop = report.functions[0].loops[0];
  EXPECT_TRUE(loop.pipelined);
  EXPECT_EQ(loop.recMII, 15);
  EXPECT_EQ(loop.achievedII, 15);
}
