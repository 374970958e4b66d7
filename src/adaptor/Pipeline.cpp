// Pipeline - assembles the full adaptor pass pipeline and the final
// HLS-compatibility verification pass.
#include "adaptor/Adaptor.h"
#include "lir/HlsCompat.h"
#include "lir/LContext.h"
#include "lir/transforms/Transforms.h"

namespace mha::adaptor {

namespace {

class HlsCompatVerify : public lir::ModulePass {
public:
  std::string name() const override { return "hls-compat-verify"; }

  bool run(lir::Module &module, lir::PassStats &stats,
           DiagnosticEngine &diags) override {
    lir::HlsCompatReport report = lir::checkHlsCompatibility(module, diags);
    for (const auto &[category, count] : report.violations)
      stats["compat." + category] += count;
    stats["compat.errors"] += report.errors;
    stats["compat.warnings"] += report.warnings;
    return false;
  }
};

} // namespace

std::unique_ptr<lir::ModulePass> createHlsCompatVerifyPass() {
  return std::make_unique<HlsCompatVerify>();
}

void buildCallLegalizationPipeline(lir::PassManager &pm,
                                   const AdaptorOptions &options) {
  pm.add(lir::createRec2IterPass(kRecursionDepth));
  lir::InlinerOptions io;
  io.sizeBudget = options.inlineBudget;
  io.preservedFunction = options.topFunction;
  pm.add(lir::createInlinerPass(io));
  pm.add(lir::createCallSitePrivatizationPass());
  pm.add(lir::createDCEPass());
  pm.add(lir::createSimplifyCFGPass());
}

void buildAdaptorPipeline(lir::PassManager &pm,
                          const AdaptorOptions &options) {
  buildCallLegalizationPipeline(pm, options);
  if (options.runDescriptorElimination)
    pm.add(createDescriptorEliminationPass());
  if (options.runIntrinsicLegalize)
    pm.add(createIntrinsicLegalizePass());
  pm.add(lir::createInstCombinePass());
  pm.add(lir::createDCEPass());
  if (options.runGepCanonicalize)
    pm.add(createGepCanonicalizePass());
  pm.add(lir::createInstCombinePass());
  pm.add(lir::createCSEPass());
  pm.add(lir::createDCEPass());
  pm.add(lir::createSimplifyCFGPass());
  pm.add(lir::createLICMPass());
  pm.add(lir::createDCEPass());
  if (options.runPointerTypeRecovery)
    pm.add(createPointerTypeRecoveryPass());
  if (options.runMetadataConvert)
    pm.add(createMetadataConvertPass());
  if (options.runAttributeScrub)
    pm.add(createAttributeScrubPass());
  if (options.verifyCompat)
    pm.add(createHlsCompatVerifyPass());
}

} // namespace mha::adaptor
