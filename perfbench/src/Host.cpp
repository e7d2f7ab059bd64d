//===- perfbench/src/Host.cpp - Host fingerprint --------------------------===//

#include "Host.h"

#include <algorithm>
#include <fstream>
#include <sched.h>
#include <thread>

namespace perfbench {

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(" \t", Colon + 1));
    }
  return "unknown";
}

std::string sanitizers() {
  std::string S;
  auto Add = [&](const char *Name) {
    S += S.empty() ? Name : std::string(",") + Name;
  };
#if defined(__SANITIZE_ADDRESS__)
  Add("address");
#endif
#if defined(__SANITIZE_THREAD__)
  Add("thread");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
  Add("address");
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
  Add("thread");
#endif
#if __has_feature(undefined_behavior_sanitizer)
  Add("undefined");
#endif
#endif
  return S.empty() ? "none" : S;
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

HostInfo hostInfo() {
  HostInfo H;
  H.CpuModel = cpuModel();
  H.Nproc = onlineCpus();
  H.Compiler = PERFBENCH_COMPILER;
  H.BuildType = PERFBENCH_BUILD_TYPE;
  H.Sanitizers = sanitizers();
  return H;
}

std::string hostJson(const HostInfo &H) {
  return "{\"cpu_model\": \"" + escape(H.CpuModel) +
         "\", \"nproc\": " + std::to_string(H.Nproc) + ", \"compiler\": \"" +
         escape(H.Compiler) + "\", \"build_type\": \"" + escape(H.BuildType) +
         "\", \"sanitizers\": \"" + escape(H.Sanitizers) + "\"}";
}

} // namespace perfbench
