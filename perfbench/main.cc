// perfbench: the repo benchmark's executable. `perfbench gen ...` writes a
// benchmark graph; `perfbench <workload> ...` runs one workload and prints
// its result line (see README.md). perfbench/run.py drives both.
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>

#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: large buffers (blocks, path arenas, graphs) go
  // back to the OS when freed, so peak_rss_mb tracks the live high-water
  // mark instead of glibc's adaptive threshold, which made it vary by ~20%
  // between identical runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    Args args = ParseArgs(argc, argv);
    Report report;
    int code = 0;
    if (args.command == "gen") {
      code = RunGen(args, report);
    } else if (args.command == "n2v-offline-big") {
      code = RunN2vOfflineBig(args, report);
    } else if (args.command == "ooc-deepwalk-half") {
      code = RunOocDeepwalkHalf(args, report);
    } else if (args.command == "serve-two-tenant") {
      code = RunServeTwoTenant(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown command %s\n", args.command.c_str());
      return 64;
    }
    std::printf("%s\n", report.Json().c_str());
    std::fflush(stdout);
    if (code == 0 && !report.correct()) {
      code = 2;
    }
    return code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 1;
  }
}
