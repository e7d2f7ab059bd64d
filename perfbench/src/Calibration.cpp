//===- perfbench/src/Calibration.cpp - Host speed reference ---------------===//

#include "Calibration.h"

#include "Trace.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

extern char **environ;

namespace perfbench {

namespace {

uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

[[noreturn]] void fail(const char *What) {
  std::fprintf(stderr, "perfbench: reference kernel: %s\n", What);
  std::exit(1);
}

} // namespace

double runReferenceKernel() {
  uint64_t X = 7, Sink = 0;
  double T0 = now();
  // A node-based table of ~140,000 entries (~10 MB): inserts, then twice
  // as many lookups, about half of which miss.
  std::unordered_map<uint64_t, uint64_t> Table;
  for (uint64_t I = 0; I < 150000; ++I) {
    X = mix(X);
    Table[X & 0xFFFFF] += I;
  }
  for (int I = 0; I < 300000; ++I) {
    X = mix(X);
    auto It = Table.find(X & 0xFFFFF);
    if (It != Table.end())
      Sink += It->second;
  }
  // 2,000 heap blocks of 2 KiB, copied whole 20 times.
  std::vector<std::vector<uint64_t>> Blocks;
  for (uint64_t I = 0; I < 2000; ++I)
    Blocks.emplace_back(256, X + I);
  for (size_t R = 0; R < 20; ++R) {
    std::vector<std::vector<uint64_t>> Copy = Blocks;
    Sink += Copy[R][R];
  }
  double Seconds = now() - T0;

  // Keep the work observable so it is not folded away.
  if (Sink == 0x5eed)
    std::fprintf(stderr, "\n");
  return Seconds;
}

double referenceSeconds() {
  static const std::string Binary =
      (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
       "perfbench_ref")
          .string();
  int Pipe[2];
  if (pipe(Pipe) != 0)
    fail("pipe failed");
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  char *Argv[] = {const_cast<char *>(Binary.c_str()), nullptr};
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Binary.c_str(), &Actions, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[64];
  for (ssize_t N; Err == 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0;)
    Out.append(Buf, size_t(N));
  close(Pipe[0]);
  if (Err != 0)
    fail(("cannot start " + Binary).c_str());
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    ;
  char *End = nullptr;
  double Seconds = std::strtod(Out.c_str(), &End);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || End == Out.c_str() ||
      !(Seconds > 0))
    fail("no time reported");
  return Seconds;
}

} // namespace perfbench
