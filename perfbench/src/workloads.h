//===--- perfbench/src/workloads.h - the four workloads -------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up (datasets, cold compiles into the run's own cache,
/// the daemon for `serve`), checks every program against its baseline,
/// measures a window of `--seconds` with all vCPUs busy, and fills the
/// report: the end-to-end metrics in untraced runs, the per-layer metrics
/// in traced ones. perfbench/README.md explains why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace perfbench {

/// Names accepted by --workload.
bool knownWorkload(const std::string &Name);

/// Run workload O.Workload and fill \p R.
void runWorkload(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
