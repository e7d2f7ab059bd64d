//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Runs one workload (Workloads.h) and prints, in order: the host
// fingerprint, per-sample summaries, and as the last line the result
// JSON.  Exits 1 when any verdict or identity check failed.  A traced run
// also writes its spans and the result to DIR.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               Msg);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  uint64_t Seconds = 0, Trace = 2;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      HaveSeed = parseUnsigned(V, C.Seed);
    else if (A == "--seconds")
      parseUnsigned(V, Seconds);
    else if (A == "--trace")
      parseUnsigned(V, Trace);
    else if (A == "--work-dir")
      C.WorkDir = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), C.Workload) == Names.end())
    usage("unknown workload");
  if (!HaveSeed || Seconds < 1 || Seconds > 600 || Trace > 1 ||
      C.WorkDir.empty())
    usage("bad --seed, --seconds, --trace or --work-dir");
  C.Seconds = double(Seconds);
  C.Traced = Trace == 1;
  HostInfo H = hostInfo();
  // One thread and one worker process: on a shared host, every extra
  // thread the load runs measures the scheduler and the other tenants,
  // and idle explorer threads spin, which moves CPU time too.  They all
  // stay on the CPU the run started on, with the reference kernel
  // (Calibration.h): at one moment the same work ran up to 1.5x slower on
  // one of this host's CPUs than on another.
  C.Threads = 1;
  int Cpu = sched_getcpu();
  cpu_set_t One;
  CPU_ZERO(&One);
  if (Cpu >= 0) {
    CPU_SET(Cpu, &One);
    sched_setaffinity(0, sizeof(One), &One);
  }
  std::filesystem::create_directories(C.WorkDir);

  std::string Host = hostJson(H);
  std::printf("host %s\n", Host.c_str());
  std::printf("workload %s seed %llu seconds %llu trace %d threads %u cpu %d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              static_cast<unsigned long long>(Seconds), int(C.Traced),
              C.Threads, Cpu);
  std::fflush(stdout);

  Tracer T;
  RunReport R = runWorkload(C, T);
  for (const std::string &Note : R.FailureNotes)
    std::fprintf(stderr, "perfbench: FAILED %s\n", Note.c_str());

  std::string Result = resultJson(R);
  std::string Stem = C.WorkDir + "/" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + "-trace" +
                     std::to_string(int(C.Traced));
  if (C.Traced && !T.write(Stem + "-spans.json"))
    std::fprintf(stderr, "perfbench: could not write %s-spans.json\n",
                 Stem.c_str());
  if (std::FILE *F = std::fopen((Stem + "-result.json").c_str(), "w")) {
    std::fprintf(F, "{\"host\": %s, \"result\": %s}\n", Host.c_str(),
                 Result.c_str());
    std::fclose(F);
  }
  std::printf("%s\n", Result.c_str());
  return R.correct() ? 0 : 1;
}
