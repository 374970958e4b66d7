#include "mir/Pass.h"

#include "mir/Ops.h"
#include "mir/Verifier.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cmath>

namespace mha::mir {

int64_t countOps(ModuleOp module) {
  int64_t ops = 0;
  module.op->walk([&](Operation *) { ++ops; });
  return ops;
}

bool MPassManager::run(ModuleOp module, DiagnosticEngine &diags) {
  records_.clear();
  for (auto &pass : passes_) {
    MPassRecord record;
    record.passName = pass->name();
    record.opsBefore = countOps(module);
    for (MPassInstrumentation *instrumentation : instrumentations_)
      instrumentation->beforePass(*pass, module);
    telemetry::Span span(record.passName, "mir-pass");
    record.changed = pass->run(module, record.stats, diags);
    record.millis = span.finish();
    metrics::recordPassDuration("mir", record.passName,
                                std::llround(record.millis * 1000.0),
                                record.changed);
    record.opsAfter = countOps(module);
    for (auto it = instrumentations_.rbegin(); it != instrumentations_.rend();
         ++it)
      (*it)->afterPass(*pass, module, record);
    records_.push_back(std::move(record));
    if (diags.hadError()) {
      diags.note(strfmt("MLIR pipeline aborted after pass '%s'",
                        pass->name().c_str()));
      return false;
    }
    if (verifyEach_) {
      telemetry::Span verifySpan("verify", "mir-verify");
      if (!verifyModule(module, diags)) {
        diags.note(strfmt("MLIR verification failed after pass '%s'",
                          pass->name().c_str()));
        return false;
      }
    }
  }
  return true;
}

} // namespace mha::mir
