//===- perfbench/src/RefMain.cpp - Reference kernel process ---------------===//
//
//   perfbench_ref
//
// Runs the reference kernel (Calibration.h) once and prints its wall time
// in seconds.
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"

#include <cstdio>

int main() {
  std::printf("%.9g\n", perfbench::runReferenceKernel());
  return 0;
}
