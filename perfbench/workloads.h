#ifndef SUDAF_PERFBENCH_WORKLOADS_H_
#define SUDAF_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Runs one workload as `options` asks: with options.trace off, the
// end-to-end metrics of a timed run; with it on, the per-layer metrics of
// an untraced, a traced and a probed phase. Returns false (with a message
// on stderr) when the workload cannot run at all.
bool RunWorkload(const Options& options, Outcome* outcome);

}  // namespace perfbench

#endif  // SUDAF_PERFBENCH_WORKLOADS_H_
