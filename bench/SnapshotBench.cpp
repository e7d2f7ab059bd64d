//===- bench/SnapshotBench.cpp - Snapshot policies: the K-sweep -------------===//
//
// The measurement behind ExplorerOptions::CheckpointInterval's default:
// the same schedule trees explored under
//   - SnapshotPolicy::Copy    (every fork stores its configuration),
//   - SnapshotPolicy::Hybrid  at K in {1, 2, 4, 8, 16, 32, 64}
// on one thread, so every counter is deterministic.  For each run the
// bench records wall-clock, TotalSteps (identical across policies by the
// engine's contract — a mismatch fails the bench), ReplaySteps (the CPU
// the policy pays re-deriving states) and Checkpoints (the frontier
// memory it pays holding full configurations).  Copy is the memory
// ceiling and CPU floor; large K approaches the reverse (whole-prefix
// replay from the root); the sweep shows where the hybrid stops paying
// replay without approaching Copy's footprint.
//
// Results are printed as a table and recorded to BENCH_SNAPSHOT.json
// (override with --out FILE).  `--quick` runs a reduced matrix for CI
// smoke.  Every run's deduplicated leak set is cross-checked against the
// Copy reference — a policy that went faster by dropping findings fails
// the whole bench.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "support/Printing.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Kocher.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace sct;

namespace {

struct BenchCase {
  std::string Id;
  Program Prog;
  ExplorerOptions Mode;
};

struct RunRecord {
  std::string Policy;
  unsigned K = 0; // 0 for Copy.
  double Seconds = 0;
  uint64_t Steps = 0;
  uint64_t ReplaySteps = 0;
  uint64_t Checkpoints = 0;
  size_t Leaks = 0;
  bool LeakSetOk = true;
};

std::set<uint64_t> leakKeys(const ExploreResult &R) {
  std::set<uint64_t> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert(L.key());
  return S;
}

/// The fork-dense contention ladder from ContentionBench: pure frontier
/// traffic, so snapshot cost dominates the runtime.
Program forkLadder(unsigned Rungs) {
  std::string Asm = ".reg ra rb\n.init ra 1\nstart:\n";
  for (unsigned I = 0; I < Rungs; ++I) {
    std::string N = std::to_string(I);
    Asm += "  br ult ra, 4 -> t" + N + ", f" + N + "\n";
    Asm += "t" + N + ":\n  rb = add rb, 1\n";
    Asm += "f" + N + ":\n  rb = add rb, 2\n";
  }
  Asm += "end:\n";
  return parseAsmOrDie(Asm);
}

RunRecord runOne(const BenchCase &C, const char *Policy, SnapshotPolicy P,
                 unsigned K, const std::set<uint64_t> &RefLeaks,
                 uint64_t RefSteps) {
  ExplorerOptions Opts = C.Mode;
  Opts.Threads = 1;
  Opts.Snapshots = P;
  Opts.CheckpointInterval = K;
  Machine M(C.Prog);
  auto T0 = std::chrono::steady_clock::now();
  ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
  auto T1 = std::chrono::steady_clock::now();

  RunRecord Rec;
  Rec.Policy = Policy;
  Rec.K = K;
  Rec.Seconds = std::chrono::duration<double>(T1 - T0).count();
  Rec.Steps = R.TotalSteps;
  Rec.ReplaySteps = R.ReplaySteps;
  Rec.Checkpoints = R.Checkpoints;
  Rec.Leaks = R.Leaks.size();
  Rec.LeakSetOk = leakKeys(R) == RefLeaks && R.TotalSteps == RefSteps;
  return Rec;
}

void jsonRun(FILE *F, const RunRecord &R, bool Last) {
  std::fprintf(F,
               "      {\"policy\": \"%s\", \"k\": %u, \"seconds\": %.6f, "
               "\"steps\": %llu, \"replay_steps\": %llu, "
               "\"checkpoints\": %llu, \"leaks\": %zu, "
               "\"matches_reference\": %s}%s\n",
               R.Policy.c_str(), R.K, R.Seconds,
               static_cast<unsigned long long>(R.Steps),
               static_cast<unsigned long long>(R.ReplaySteps),
               static_cast<unsigned long long>(R.Checkpoints), R.Leaks,
               R.LeakSetOk ? "true" : "false", Last ? "" : ",");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_SNAPSHOT.json";
  bool Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--quick]\n", Argv[0]);
      return 2;
    }
  }

  std::vector<BenchCase> Cases;
  {
    BenchCase Ladder;
    Ladder.Id = Quick ? "fork-ladder-10" : "fork-ladder-14";
    Ladder.Prog = forkLadder(Quick ? 10 : 14);
    Ladder.Mode = v1v11Mode();
    Cases.push_back(std::move(Ladder));
  }
  {
    BenchCase Kocher;
    Kocher.Id = "kocher-05-v4";
    Kocher.Prog = kocherCases()[4].Prog;
    Kocher.Mode = v4Mode();
    Cases.push_back(std::move(Kocher));
  }
  if (!Quick) {
    // The two largest real trees; with PruneSeen (the default) both
    // complete, so the sweep measures snapshots on production-shaped
    // work, not on a truncation artifact.
    BenchCase Mee;
    Mee.Id = "mee-c-v4";
    Mee.Prog = meeC().Prog;
    Mee.Mode = v4Mode();
    Cases.push_back(std::move(Mee));

    BenchCase Ssl;
    Ssl.Id = "ssl3-c-v4";
    Ssl.Prog = ssl3C().Prog;
    Ssl.Mode = v4Mode();
    Cases.push_back(std::move(Ssl));
  }

  std::vector<unsigned> Ks = Quick ? std::vector<unsigned>{4, 16}
                                   : std::vector<unsigned>{1, 2, 4, 8,
                                                           16, 32, 64};

  FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 2;
  }
  std::fprintf(Out,
               "{\n  \"bench\": \"snapshot-policies\",\n"
               "  \"reference\": \"copy (every fork stores its COW "
               "configuration)\",\n  \"cases\": [\n");

  bool AllOk = true;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const BenchCase &C = Cases[CI];
    // Copy is the reference for both the leak set and the step counters.
    ExplorerOptions Ref = C.Mode;
    Ref.Threads = 1;
    Machine M(C.Prog);
    ExploreResult RefRun = explore(M, Configuration::initial(C.Prog), Ref);
    std::set<uint64_t> RefLeaks = leakKeys(RefRun);

    std::printf("%s:\n", C.Id.c_str());
    std::vector<RunRecord> Runs;
    Runs.push_back(
        runOne(C, "copy", SnapshotPolicy::Copy, 0, RefLeaks,
               RefRun.TotalSteps));
    for (unsigned K : Ks)
      Runs.push_back(runOne(C, "hybrid", SnapshotPolicy::Hybrid, K,
                            RefLeaks, RefRun.TotalSteps));

    std::vector<std::vector<std::string>> Table;
    for (const RunRecord &R : Runs) {
      Table.push_back(
          {R.Policy, R.K ? std::to_string(R.K) : "-",
           std::to_string(R.Seconds).substr(0, 6), std::to_string(R.Steps),
           std::to_string(R.ReplaySteps), std::to_string(R.Checkpoints),
           R.LeakSetOk ? "ok" : "MISMATCH"});
      AllOk &= R.LeakSetOk;
    }
    std::printf("%s\n",
                renderTable({"policy", "K", "seconds", "steps",
                             "replay steps", "checkpoints", "vs copy"},
                            Table)
                    .c_str());

    std::fprintf(Out, "    {\"id\": \"%s\", \"runs\": [\n", C.Id.c_str());
    for (size_t I = 0; I < Runs.size(); ++I)
      jsonRun(Out, Runs[I], I + 1 == Runs.size());
    std::fprintf(Out, "    ]}%s\n", CI + 1 == Cases.size() ? "" : ",");
  }

  std::fprintf(Out,
               "  ],\n  \"default_checkpoint_interval\": 16,\n"
               "  \"all_runs_match_reference\": %s\n}\n",
               AllOk ? "true" : "false");
  std::fclose(Out);
  std::printf("recorded %s\n", OutPath);
  if (!AllOk) {
    std::printf("LEAK SET / STEP MISMATCH against the Copy reference\n");
    return 1;
  }
  return 0;
}
