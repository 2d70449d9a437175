// Entry points of the benchmark's subcommands (gen.cc, batch.cc, serve.cc).
// Each fills `report` and returns the process exit code.
#ifndef FLEXIWALKER_PERFBENCH_WORKLOADS_H_
#define FLEXIWALKER_PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

int RunGen(const Args& args, Report& report);
int RunN2vOfflineBig(const Args& args, Report& report);
int RunOocDeepwalkHalf(const Args& args, Report& report);
int RunServeTwoTenant(const Args& args, Report& report);

}  // namespace perfbench

#endif  // FLEXIWALKER_PERFBENCH_WORKLOADS_H_
