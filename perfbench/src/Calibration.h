//===- perfbench/src/Calibration.h - Host speed reference -------*- C++ -*-===//
//
// On a shared host the same batch runs up to 1.7x slower for a minute or
// more at a time, while other tenants load the machine, so a run's median
// time mostly says which period it fell in.  The slowdown is not uniform:
// a pure arithmetic loop slows by ~10%, allocation-heavy code that chases
// pointers through node-based containers nearly as much as the checker.
// So between batches the harness also times a fixed kernel of that kind,
// and reports batch time in units of the kernel's.  Over ~25 s windows of
// a five-minute sample on a 4-core Xeon host, the batch time of `table2`
// and `mitigate` varied by 9% (coefficient of variation) and its ratio to
// this kernel's time by 4.5% and 5.8%.
//
// The kernel runs in a process of its own (`perfbench_ref`, next to the
// harness binary) on the harness's CPU: in the harness's own process its
// time depended on the heap the workload left behind (0.08 s after
// `table2` batches, 0.14 s after `mitigate` ones), so a change to the
// checker's allocation pattern would have moved both sides of the ratio.
// It uses no library code.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

namespace perfbench {

/// The kernel itself; returns its wall time in seconds.  It does the same
/// work on every call.
double runReferenceKernel();

/// Runs the kernel once in a fresh `perfbench_ref` process and returns
/// the time it measured, in seconds; aborts the run if the process cannot
/// be started or reports nothing.
double referenceSeconds();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H
