#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

/// Each runs one workload over the inputs `gen` wrote to args.dir and
/// returns the process exit code (nonzero on any correctness mismatch).
int RunEditSession(const Args& args);
int RunBatchMatch(const Args& args);
int RunServeExplore(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
