// perfbench - one workload per process; see ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--setup-only]
//
// Prints "perfbench: ready" once set-up is done, "# ..." report lines,
// and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any output is wrong, 2 on bad arguments.
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace perfbench {

namespace {

int usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<compile-default|compile-unrolled|serve-mix|dse-search> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--setup-only]\n",
               why);
  return 2;
}

} // namespace

} // namespace perfbench

int main(int argc, char **argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char * {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char *v = nullptr;
    if (arg == "--setup-only") {
      options.setupOnly = true;
      continue;
    }
    if (!(v = value()))
      return usage(("missing value for " + arg).c_str());
    char *end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "1") == 0;
      if (!options.trace && std::strcmp(v, "0") != 0)
        return usage("--trace takes 0 or 1");
    } else if (arg == "--work-dir") {
      options.workDir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end && *end)
      return usage(("bad number for " + arg).c_str());
  }
  if (!(options.seconds > 0))
    return usage("--seconds must be positive");

  int (*workload)(Context &) = nullptr;
  if (options.workload == "compile-default")
    workload = runCompileDefault;
  else if (options.workload == "compile-unrolled")
    workload = runCompileUnrolled;
  else if (options.workload == "serve-mix")
    workload = runServeMix;
  else if (options.workload == "dse-search")
    workload = runDseSearch;
  else
    return usage(("unknown workload '" + options.workload + "'").c_str());

  try {
    Context ctx(options);
    int status = workload(ctx);
    if (options.setupOnly || status != 0)
      return status;
    return ctx.finish();
  } catch (const std::exception &e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
