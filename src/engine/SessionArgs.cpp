//===- engine/SessionArgs.cpp - Declarative session flag table --------------===//

#include "engine/SessionArgs.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace sct;

namespace {

// The one place a session flag is declared.  Rows parse *and* document:
// sessionFlagsHelp() renders Name/Arg/Doc, parseSessionArgs dispatches to
// Apply.  Keep Doc to one line — it becomes one help row.
constexpr SessionFlag Flags[] = {
    {"--threads", "N", "engine worker threads (default: hardware concurrency)",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.Threads);
     }},
    {"--prune-seen", nullptr, "enable seen-state pruning (the default)",
     [](SessionOptions &O, const char *) {
       O.DefaultOpts.PruneSeen = true;
       return true;
     }},
    {"--no-prune-seen", nullptr, "disable cross-schedule seen-state pruning",
     [](SessionOptions &O, const char *) {
       O.DefaultOpts.PruneSeen = false;
       return true;
     }},
    {"--checkpoint-interval", "K",
     "hybrid snapshots: shared checkpoint every K directives",
     [](SessionOptions &O, const char *V) {
       if (!parseNumber(V, O.DefaultOpts.CheckpointInterval))
         return false;
       O.DefaultOpts.Snapshots = SnapshotPolicy::Hybrid;
       return true;
     }},
    {"--minimize-witnesses", nullptr,
     "delta-debug witnesses to minimal attack schedules",
     [](SessionOptions &O, const char *) {
       O.Passes.MinimizeWitnesses = true;
       return true;
     }},
    {"--minimize-budget", "N", "replays spent minimizing each witness",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.Passes.Minimize.MaxReplays);
     }},
    {"--minimize-threads", "N",
     "minimization worker threads (0 = the check's frontier share)",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.Passes.Minimize.Threads);
     }},
    {"--no-seed-replays", nullptr,
     "minimize on the from-initial strict-replay oracle (same results)",
     [](SessionOptions &O, const char *) {
       O.Passes.Minimize.SeedReplays = false;
       return true;
     }},
    {"--prove-sps", nullptr,
     "try the SPS proof backend first; conclusive verdicts skip exploring",
     [](SessionOptions &O, const char *) {
       O.Passes.ProveSps = true;
       return true;
     }},
    {"--sps-max-tapes", "N", "oracle-tape budget for --prove-sps",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.Passes.Sps.MaxTapes);
     }},
    {"--cache-dir", "DIR",
     "persistent result cache: serve unchanged checks from DIR",
     [](SessionOptions &O, const char *V) {
       O.CacheDir = V;
       return true;
     }},
    {"--workers", "N", "dispatch checkMany to N sctworker processes",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.Workers);
     }},
    {"--worker-bin", "PATH",
     "worker binary (default: sctworker beside this executable)",
     [](SessionOptions &O, const char *V) {
       O.WorkerBinary = V;
       return true;
     }},
    {"--worker-timeout", "SEC",
     "kill a worker past SEC seconds on one request; re-run in-process",
     [](SessionOptions &O, const char *V) {
       return parseNumber(V, O.WorkerTimeoutSec);
     }},
};

} // namespace

std::span<const SessionFlag> sct::sessionFlags() { return Flags; }

SessionArgs sct::parseSessionArgs(int Argc, char **Argv) {
  SessionArgs Parsed;
  Parsed.Opts.Threads = std::thread::hardware_concurrency();
  Parsed.Consumed.assign(static_cast<size_t>(Argc < 0 ? 0 : Argc), false);
  for (int I = 1; I < Argc; ++I) {
    for (const SessionFlag &F : Flags) {
      if (std::strcmp(Argv[I], F.Name) != 0)
        continue;
      if (F.Arg) {
        if (I + 1 >= Argc)
          break; // Trailing flag without its value: leave it unconsumed.
        Parsed.Consumed[static_cast<size_t>(I)] = true;
        ++I;
        if (!F.Apply(Parsed.Opts, Argv[I]) && Parsed.Error.empty())
          Parsed.Error = std::string("invalid value '") + Argv[I] +
                         "' for " + F.Name + " " + F.Arg;
      } else {
        F.Apply(Parsed.Opts, nullptr);
      }
      Parsed.Consumed[static_cast<size_t>(I)] = true;
      break;
    }
  }
  return Parsed;
}

std::string sct::sessionFlagsHelp() {
  // Align the doc column on the widest "--flag ARG" spelling.
  size_t Widest = 0;
  for (const SessionFlag &F : Flags) {
    size_t W = std::strlen(F.Name) + (F.Arg ? 1 + std::strlen(F.Arg) : 0);
    Widest = std::max(Widest, W);
  }
  std::string Out;
  for (const SessionFlag &F : Flags) {
    std::string Head = F.Name;
    if (F.Arg) {
      Head += ' ';
      Head += F.Arg;
    }
    Out += "  " + Head + std::string(Widest + 2 - Head.size(), ' ') +
           F.Doc + "\n";
  }
  return Out;
}

SessionOptions sct::sessionOptionsFromArgs(int Argc, char **Argv) {
  SessionArgs Parsed = parseSessionArgs(Argc, Argv);
  if (!Parsed.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Parsed.Error.c_str());
    std::exit(2);
  }
  return Parsed.Opts;
}
