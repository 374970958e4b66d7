#include "lir/PassManager.h"

#include "lir/Function.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace mha::lir {

bool FunctionPass::run(Module &module, PassStats &stats,
                       DiagnosticEngine &diags) {
  bool changed = false;
  for (Function *fn : module.functions())
    changed |= runOnFunction(*fn, stats, diags);
  return changed;
}

void countModuleSize(const Module &module, int64_t &insts, int64_t &blocks) {
  insts = 0;
  blocks = 0;
  for (const Function *fn : module.functions()) {
    for (const BasicBlock *bb : fn->blockPtrs()) {
      ++blocks;
      insts += static_cast<int64_t>(bb->size());
    }
  }
}

PrintIRInstrumentation::PrintIRInstrumentation(Options options,
                                               std::ostream &os)
    : options_(std::move(options)), os_(os) {}

namespace {

bool nameListed(const std::vector<std::string> &names,
                const std::string &name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

void PrintIRInstrumentation::beforePass(const ModulePass &pass,
                                        const Module &module) {
  if (!options_.beforeAll && !nameListed(options_.beforePasses, pass.name()))
    return;
  os_ << "*** IR before pass '" << pass.name() << "' ***\n"
      << printModule(module);
}

void PrintIRInstrumentation::afterPass(const ModulePass &pass,
                                       const Module &module,
                                       const PassRunRecord &record) {
  if (!options_.afterAll && !nameListed(options_.afterPasses, pass.name()))
    return;
  os_ << "*** IR after pass '" << pass.name() << "' ("
      << (record.changed ? "changed" : "no change") << ") ***\n"
      << printModule(module);
}

bool PassManager::run(Module &module, DiagnosticEngine &diags) {
  records_.clear();
  for (auto &pass : passes_) {
    PassRunRecord record;
    record.passName = pass->name();
    for (PassInstrumentation *instrumentation : instrumentations_)
      instrumentation->beforePass(*pass, module);
    telemetry::Span span(record.passName, "lir-pass");
    record.changed = pass->run(module, record.stats, diags);
    record.millis = span.finish();
    metrics::recordPassDuration("lir", record.passName,
                                std::llround(record.millis * 1000.0),
                                record.changed);
    for (auto it = instrumentations_.rbegin(); it != instrumentations_.rend();
         ++it)
      (*it)->afterPass(*pass, module, record);
    records_.push_back(std::move(record));
    if (diags.hadError()) {
      diags.note(strfmt("pipeline aborted after pass '%s'",
                        pass->name().c_str()));
      return false;
    }
    if (verifyEach_) {
      telemetry::Span verifySpan("verify", "lir-verify");
      if (!verifyModule(module, diags)) {
        diags.note(strfmt("IR verification failed after pass '%s'",
                          pass->name().c_str()));
        return false;
      }
    }
  }
  return true;
}

PassStats PassManager::totalStats() const {
  PassStats total;
  for (const PassRunRecord &record : records_)
    for (const auto &[key, value] : record.stats)
      total[key] += value;
  return total;
}

} // namespace mha::lir
