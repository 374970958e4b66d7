#include "Replay.h"

#include "Stats.h"

#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"

#include <memory>
#include <optional>

namespace perfbench {

using namespace mha;

namespace {

/// Opens a span at each adaptor pass's before hook and closes it at the
/// after hook, so the pipeline span's self time is exactly the time
/// between passes (post-pass verification and IR-size bookkeeping).
class PassSpans : public lir::PassInstrumentation {
public:
  explicit PassSpans(Recorder &recorder) : recorder_(recorder) {}

  void beforePass(const lir::ModulePass &pass, const lir::Module &) override {
    open_ = std::make_unique<Recorder::Span>(
        recorder_, span::AdaptorPassPrefix + metricComponent(pass.name()));
  }
  void afterPass(const lir::ModulePass &, const lir::Module &,
                 const lir::PassRunRecord &) override {
    open_.reset();
  }

private:
  Recorder &recorder_;
  std::unique_ptr<Recorder::Span> open_;
};

int64_t moduleInsts(const lir::Module &module) {
  int64_t insts = 0, blocks = 0;
  lir::countModuleSize(module, insts, blocks);
  return insts;
}

} // namespace

flow::FlowResult runFlow(const DesignPoint &point) {
  return point.kind == flow::FlowKind::Adaptor
             ? flow::runAdaptorFlow(*point.spec, point.config)
             : flow::runHlsCppFlow(*point.spec, point.config);
}

ReplayOutcome replayFlow(const DesignPoint &point, Recorder &recorder,
                         int64_t op) {
  ReplayOutcome out;
  const flow::FlowOptions options; // the defaults the flow calls use
  DiagnosticEngine diags;
  auto fail = [&](const char *stage) {
    out.error = std::string(stage) + ": " + diags.str();
    return out;
  };

  Recorder::Span flowSpan(recorder, span::Flow, op);
  double cacheIoMs = 0;
  mir::MContext mctx;
  std::optional<mir::OwnedModule> module;
  {
    Recorder::Span s(recorder, span::MirBuild);
    module = point.spec->build(mctx, point.config);
  }
  {
    Recorder::Span s(recorder, span::MirPrepare);
    if (!mir::verifyModule(module->get(), diags))
      return fail("verify");
    mir::MPassManager pm;
    pm.add(mir::createCanonicalizePass());
    if (!pm.run(module->get(), diags))
      return fail("prepare");
  }

  // Declared before the module so the module is destroyed first.
  lir::LContext ctx;
  std::unique_ptr<lir::Module> lmod;
  if (point.kind == flow::FlowKind::Adaptor) {
    {
      Recorder::Span s(recorder, span::MirAffineToScf);
      mir::MPassManager convert;
      convert.add(mir::createAffineToScfPass());
      convert.add(mir::createCanonicalizePass());
      if (!convert.run(module->get(), diags))
        return fail("affine-to-scf");
    }
    {
      Recorder::Span s(recorder, span::LoweringLower);
      lmod = lowering::lowerToLIR(module->get(), ctx, options.lowering, diags);
      if (!lmod)
        return fail("lower");
    }
    {
      Recorder::Span s(recorder, span::AdaptorPipeline);
      adaptor::AdaptorOptions ao = options.adaptor;
      ao.topFunction = point.spec->name;
      lir::PassManager pm(/*verifyEach=*/true);
      adaptor::buildAdaptorPipeline(pm, ao);
      PassSpans passSpans(recorder);
      pm.addInstrumentation(&passSpans);
      if (!pm.run(*lmod, diags))
        return fail("adaptor");
    }
    recorder.count("adaptor.insts_out", double(moduleInsts(*lmod)));
  } else {
    std::string source;
    {
      Recorder::Span s(recorder, span::HlscppEmit);
      source = hlscpp::emitHlsCpp(module->get(), diags);
      if (source.empty())
        return fail("emit");
    }
    {
      Recorder::Span s(recorder, span::HlscppFrontend);
      lmod = hlscpp::parseHlsCpp(source, ctx, diags);
      if (!lmod)
        return fail("frontend");
    }
  }

  {
    Recorder::Span io(recorder, span::CacheIo);
    std::string text;
    {
      Recorder::Span s(recorder, span::LirPrint);
      text = lir::printModule(*lmod);
    }
    Recorder::Span s(recorder, span::LirParse);
    lir::LContext scratchCtx;
    std::unique_ptr<lir::Module> restored =
        lir::parseModule(text, scratchCtx, diags);
    if (!restored)
      return fail("lir round trip");
    restored.reset();
    s.finish();
    cacheIoMs = io.finish();
  }

  vhls::SynthesisReport report;
  {
    Recorder::Span s(recorder, span::VhlsSynth);
    vhls::SynthesisOptions so = options.synthesis;
    so.topFunction = point.spec->name;
    report = vhls::synthesize(*lmod, so, diags);
  }
  out.flowMs = flowSpan.finish() - cacheIoMs;
  if (!report.accepted)
    return fail("synthesis");
  recorder.count("vhls.insts_scheduled", double(moduleInsts(*lmod)));
  out.reportJson = report.json();
  out.ok = true;
  return out;
}

} // namespace perfbench
