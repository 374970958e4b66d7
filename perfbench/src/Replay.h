// Replay.h - one design point's flow, replayed one public layer call at a
// time with a span around each call.
//
// The replay makes exactly the calls flow::runAdaptorFlow and
// flow::runHlsCppFlow make with default FlowOptions (StageCache off):
//
//   adaptor:  KernelSpec::build -> mir::verifyModule + MPassManager
//             (canonicalize) -> MPassManager (affine-to-scf, canonicalize)
//             -> lowering::lowerToLIR -> lir::PassManager(verifyEach) with
//             the adaptor pipeline -> vhls::synthesize
//   hls-c++:  KernelSpec::build -> verify + canonicalize ->
//             hlscpp::emitHlsCpp -> hlscpp::parseHlsCpp -> vhls::synthesize
//
// Between bridge and synthesis it also prints the bridge output and parses
// it back into a scratch context (what a StageCache store and restore
// cost). Those two calls sit under a "bridge.cache_io" span that the
// replay's flow time excludes, so the flow time stays comparable with the
// real flow call. The caller checks the replay's report against the real
// flow's, byte for byte: a replay that diverges would describe a
// different program.
#pragma once

#include "Inputs.h"
#include "Trace.h"

#include <string>

namespace perfbench {

/// Span names used by the replay (the per-layer metric stems).
namespace span {
inline constexpr const char *Flow = "flow";
inline constexpr const char *MirBuild = "mir.build";
inline constexpr const char *MirPrepare = "mir.prepare";
inline constexpr const char *MirAffineToScf = "mir.affine_to_scf";
inline constexpr const char *LoweringLower = "lowering.lower";
inline constexpr const char *AdaptorPipeline = "adaptor.pipeline";
/// Prefix of one adaptor pass's span; the pass name follows, made a
/// valid metric component.
inline constexpr const char *AdaptorPassPrefix = "adaptor.pass.";
inline constexpr const char *HlscppEmit = "hlscpp.emit";
inline constexpr const char *HlscppFrontend = "hlscpp.frontend";
inline constexpr const char *CacheIo = "bridge.cache_io";
inline constexpr const char *LirPrint = "lir.print";
inline constexpr const char *LirParse = "lir.parse";
inline constexpr const char *VhlsSynth = "vhls.synth";
} // namespace span

struct ReplayOutcome {
  bool ok = false;
  std::string error;
  /// SynthesisReport::json() of the replay's synthesis.
  std::string reportJson;
  /// Flow span minus the cache-io span, ms.
  double flowMs = 0;
};

/// Replays `point` under spans belonging to `op` (-1: no op), and counts
/// "adaptor.insts_out" (instructions after the adaptor pipeline) and
/// "vhls.insts_scheduled" (instructions after vhls::synthesize, that is
/// after backend unrolling).
ReplayOutcome replayFlow(const DesignPoint &point, Recorder &recorder,
                         int64_t op);

/// The real flow call for `point` with default options.
mha::flow::FlowResult runFlow(const DesignPoint &point);

} // namespace perfbench
