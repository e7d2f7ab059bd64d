//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Each workload is a closed loop: one client submits one batch through the
// library's public entry points, waits for every verdict, checks them, and
// submits the next batch until the run's time is up.  An untraced run
// reports the end-to-end metrics; a traced run sends the same requests
// with the same thread budget and order, records spans around the calls
// into each layer, and reports the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"
#include "Trace.h"

#include <string>
#include <vector>

namespace perfbench {

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  /// How long the batch loop runs; the batch in flight at the deadline
  /// completes.
  double Seconds = 10;
  bool Traced = false;
  /// Scratch directory for result caches; created on demand.
  std::string WorkDir;
  /// Thread and worker-process budget.
  unsigned Threads = 1;
};

/// Runs one workload.  \p T receives the traced run's spans.
RunReport runWorkload(const RunConfig &C, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
