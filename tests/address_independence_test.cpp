// Address-independence gate: the text the StageCache keys hash must not
// depend on heap addresses, or keys differ between processes and a
// reproducer or an on-disk cache entry cannot be reused.
//
// Two child processes, each with a different heap pad (live allocations,
// some freed again, before the first flow), print the same transcript:
// the kernel flow's mir after the MLIR stage and its lir after the adaptor
// for every kernel under three configs, and the post-adaptor lir of the
// direct-LIR flow over ir- and calls-mode fuzz programs. The test diffs
// the two transcripts.
#include "adaptor/Adaptor.h"
#include "flow/Kernels.h"
#include "fuzz/ProgramGen.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/Printer.h"
#include "mir/transforms/MirTransforms.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>

using namespace mha;

namespace {

/// The adaptor pipeline on `module`, as the flows' bridge runs it.
std::string adaptLir(lir::Module &module, const std::string &top,
                     DiagnosticEngine &diags) {
  adaptor::AdaptorOptions options;
  options.topFunction = top;
  lir::PassManager pm(/*verifyEach=*/true);
  adaptor::buildAdaptorPipeline(pm, options);
  if (!pm.run(module, diags))
    return "error: " + diags.str();
  return lir::printModule(module);
}

/// The kernel flow's two hashed texts: mir after the MLIR stage, then lir
/// after lowering and the adaptor.
std::string kernelTexts(const flow::KernelSpec &spec,
                        const flow::KernelConfig &config) {
  DiagnosticEngine diags;
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, config);
  mir::MPassManager prepare;
  prepare.add(mir::createCanonicalizePass());
  if (!prepare.run(module.get(), diags))
    return "error: " + diags.str();
  std::string out = mir::printModule(module.get());
  mir::MPassManager convert;
  convert.add(mir::createAffineToScfPass());
  convert.add(mir::createCanonicalizePass());
  if (!convert.run(module.get(), diags))
    return out + "error: " + diags.str();
  lir::LContext lctx;
  std::unique_ptr<lir::Module> lowered =
      lowering::lowerToLIR(module.get(), lctx, {}, diags);
  if (!lowered)
    return out + "error: " + diags.str();
  return out + adaptLir(*lowered, spec.name, diags);
}

/// The direct-LIR flow's hashed text: its input after the adaptor.
std::string lirTexts(const std::string &text, const std::string &top) {
  DiagnosticEngine diags;
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module = lir::parseModule(text, ctx, diags);
  if (!module)
    return "error: " + diags.str();
  return adaptLir(*module, top, diags);
}

std::string transcript() {
  std::vector<flow::KernelConfig> configs(3);
  configs[1].applyDirectives = false;
  configs[2].unrollFactor = 4;
  configs[2].partitionFactor = 4;
  configs[2].dataflow = true;
  std::ostringstream out;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (size_t c = 0; c < configs.size(); ++c)
      out << "=== kernel " << spec.name << " config " << c << "\n"
          << kernelTexts(spec, configs[c]);
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    fuzz::ProgramGen gen(seed, fuzz::GenOptions{});
    out << "=== ir " << seed << "\n" << lirTexts(gen.genIr().lir(), "fuzz_ir");
  }
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz::ProgramGen gen(seed, fuzz::GenOptions{});
    out << "=== calls " << seed << "\n"
        << lirTexts(gen.genCalls().lir(), "fuzz_calls");
  }
  return out.str();
}

/// Runs transcript() in a child process after `pad` live heap
/// allocations of varied sizes, every third freed again to leave holes.
std::string transcriptInChild(int pad) {
  int fds[2];
  if (pipe(fds) != 0)
    return "pipe failed";
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::vector<void *> blocks;
    for (int i = 0; i < pad; ++i)
      blocks.push_back(std::malloc(16 + (i * 37) % 512));
    for (int i = 0; i < pad; i += 3)
      std::free(blocks[i]);
    std::string text = transcript();
    for (size_t done = 0; done < text.size();) {
      ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0)
        _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buffer[65536];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof(buffer))) > 0;)
    text.append(buffer, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return "child failed";
  return text;
}

/// The section header ("=== ...") above `pos` and the line at `pos`.
std::string describeDifference(const std::string &text, size_t pos) {
  size_t header = text.rfind("=== ", pos);
  size_t lineStart = text.rfind('\n', pos);
  lineStart = lineStart == std::string::npos ? 0 : lineStart + 1;
  std::string where =
      header == std::string::npos
          ? "(start)"
          : text.substr(header, text.find('\n', header) - header);
  return where + ": " + text.substr(lineStart, text.find('\n', pos) - lineStart);
}

} // namespace

TEST(AddressIndependence, TwoHeapPadsPrintIdenticalStageTexts) {
  std::string small = transcriptInChild(1000);
  std::string large = transcriptInChild(20000);
  ASSERT_GT(small.size(), 1000u) << small;
  if (small == large)
    return;
  size_t pos = 0;
  while (pos < small.size() && pos < large.size() && small[pos] == large[pos])
    ++pos;
  FAIL() << "first difference at byte " << pos << "\n  pad 1000:  "
         << describeDifference(small, pos) << "\n  pad 20000: "
         << describeDifference(large, pos);
}
