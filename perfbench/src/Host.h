//===- perfbench/src/Host.h - Host fingerprint ------------------*- C++ -*-===//
//
// What a number was measured on: CPU model, online CPUs, compiler, build
// type and sanitizers.  A figure without its host cannot be compared.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>

namespace perfbench {

struct HostInfo {
  std::string CpuModel;
  unsigned Nproc = 1;
  std::string Compiler;
  std::string BuildType;
  std::string Sanitizers; ///< "none", or a comma-separated list.
};

/// The fingerprint of this host.  `Nproc` counts the CPUs this process
/// may run on, as `nproc` does, before the run pins itself to one.
HostInfo hostInfo();

/// The fingerprint as one JSON object.
std::string hostJson(const HostInfo &H);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
