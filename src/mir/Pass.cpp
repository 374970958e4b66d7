#include "mir/Pass.h"

#include "mir/Ops.h"
#include "mir/Verifier.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cmath>

namespace mha::mir {

bool MPassManager::run(ModuleOp module, DiagnosticEngine &diags) {
  records_.clear();
  for (auto &pass : passes_) {
    MPassRecord record;
    record.passName = pass->name();
    for (MPassInstrumentation *instrumentation : instrumentations_)
      instrumentation->beforePass(*pass, module);
    telemetry::Span span(record.passName, "mir-pass");
    record.changed = pass->run(module, record.stats, diags);
    record.millis = span.finish();
    metrics::recordPassDuration("mir", record.passName,
                                std::llround(record.millis * 1000.0),
                                record.changed);
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
