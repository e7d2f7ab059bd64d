//===- tests/EngineTest.cpp - Parallel engine and unified analysis API ------===//
//
// Covers the exploration engine's parallel frontier (Threads > 1 must
// reproduce the sequential deduplicated leak set), snapshot policies,
// exploration budgets (every exhausted budget marks the result truncated
// while found leaks stay trustworthy), and the CheckSession batch API.
//
//===----------------------------------------------------------------------===//

#include "engine/CheckSession.h"
#include "engine/SessionArgs.h"

#include "checker/DifferentialChecker.h"
#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <string>
#include <thread>

using namespace sct;

namespace {

/// The deduplicated leak *set* of a result: origins and rules, the
/// schedule-independent identity of each finding.
std::set<std::pair<PC, unsigned>> leakSet(const ExploreResult &R) {
  std::set<std::pair<PC, unsigned>> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert({L.Origin, static_cast<unsigned>(L.Rule)});
  return S;
}

/// The finer identity: every leak's LeakRecord::key(), which adds the
/// observation kind and its taint to the origin and rule.
std::set<uint64_t> leakKeys(const ExploreResult &R) {
  std::set<uint64_t> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert(L.key());
  return S;
}

ExploreResult exploreProgram(const Program &P, const ExplorerOptions &Opts) {
  Machine M(P);
  return explore(M, Configuration::initial(P), Opts);
}

/// Hybrid snapshots with a checkpoint interval no path reaches: the root
/// publishes the only checkpoint, so every frontier node re-derives its
/// configuration by replaying its whole directive prefix.
ExplorerOptions wholePrefixReplay(ExplorerOptions Opts) {
  Opts.Snapshots = SnapshotPolicy::Hybrid;
  Opts.CheckpointInterval = UINT_MAX;
  return Opts;
}

/// A v1 gadget with two distinct leaking loads (two unique leak keys).
Program twoLeakGadget() {
  return parseAsmOrDie(R"(
    .reg ra rb rc rd
    .init ra 9
    .region A   0x40 4 public
    .region B   0x44 4 public
    .region Key 0x48 4 secret
    .data 0x48 11 22 33 44
    start:
      br ult ra, 4 -> body, end
    body:
      rb = load [0x40, ra]
      rc = load [0x44, rb]
      rd = load [0x44, rb]
    end:
  )");
}

//===------------------------------------------------- parallel frontier ---===//

TEST(ParallelEngine, KocherLeakSetsMatchSequentialBothModes) {
  // The satellite requirement verbatim: for every Kocher variant,
  // Threads=4 yields the same deduplicated leak set (origins + rules) as
  // Threads=1, under both v1v11Mode and v4Mode.  PruneSeen is disabled
  // because the counter-equality assertions need work conservation;
  // parallel pruned counters may vary by which racing twin got dropped.
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      ExplorerOptions Seq = ModeFn();
      Seq.Threads = 1;
      Seq.PruneSeen = false;
      ExplorerOptions Par = ModeFn();
      Par.Threads = 4;
      Par.PruneSeen = false;
      ExploreResult A = exploreProgram(C.Prog, Seq);
      ExploreResult B = exploreProgram(C.Prog, Par);
      EXPECT_EQ(leakSet(A), leakSet(B))
          << C.Id << (ModeFn == v1v11Mode ? " v1v11" : " v4");
      EXPECT_EQ(A.SchedulesCompleted, B.SchedulesCompleted) << C.Id;
      EXPECT_EQ(A.TotalSteps, B.TotalSteps) << C.Id;
      EXPECT_EQ(A.Truncated, B.Truncated) << C.Id;
    }
  }
}

TEST(ParallelEngine, KocherLeakSetsMatchUnderStealingAndPruning) {
  // For every Kocher variant in both modes, the work-stealing frontier —
  // at Threads=8 with and without cross-schedule seen-state pruning, and
  // at odd worker counts that leave steal victims unevenly loaded —
  // reports the deduplicated leak set of the sequential drain.  The v4
  // crypto trees below check the same at production scale.
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      const char *Mode = ModeFn == v1v11Mode ? " v1v11" : " v4";
      ExplorerOptions Seq = ModeFn();
      Seq.Threads = 1;
      Seq.PruneSeen = false;
      ExploreResult Ref = exploreProgram(C.Prog, Seq);

      ExplorerOptions Steal = ModeFn();
      Steal.PruneSeen = false;
      for (unsigned Threads : {8u, 3u, 5u}) {
        Steal.Threads = Threads;
        ExploreResult A = exploreProgram(C.Prog, Steal);
        EXPECT_EQ(leakSet(Ref), leakSet(A))
            << C.Id << Mode << " stealing, Threads=" << Threads;
        // Without pruning, stealing conserves work exactly.
        EXPECT_EQ(Ref.TotalSteps, A.TotalSteps) << C.Id << Mode << Threads;
        EXPECT_EQ(Ref.SchedulesCompleted, A.SchedulesCompleted)
            << C.Id << Mode << Threads;
      }

      ExplorerOptions StealPrune = Steal;
      StealPrune.Threads = 8;
      StealPrune.PruneSeen = true; // The default, spelled out.
      ExploreResult B = exploreProgram(C.Prog, StealPrune);
      EXPECT_EQ(leakSet(Ref), leakSet(B))
          << C.Id << Mode << " stealing+pruning";
      EXPECT_LE(B.TotalSteps, Ref.TotalSteps) << C.Id << Mode;

      ExplorerOptions SeqPrune = Seq;
      SeqPrune.PruneSeen = true;
      ExploreResult E = exploreProgram(C.Prog, SeqPrune);
      EXPECT_EQ(leakSet(Ref), leakSet(E))
          << C.Id << Mode << " sequential+pruning";
      // Sequential pruning is deterministic: same run, same counters.
      ExploreResult E2 = exploreProgram(C.Prog, SeqPrune);
      EXPECT_EQ(E.TotalSteps, E2.TotalSteps) << C.Id << Mode;
      EXPECT_EQ(E.PrunedNodes, E2.PrunedNodes) << C.Id << Mode;
    }
  }

  // The two largest crypto trees in v4 mode, pruned (unpruned, both run
  // into the step budget): 4 and 8 stealing workers report the
  // sequential pruned drain's leaks, key for key.
  for (const SuiteCase &C : {meeC(), ssl3C()}) {
    ExplorerOptions SeqPrune = v4Mode();
    SeqPrune.Threads = 1;
    SeqPrune.PruneSeen = true;
    ExploreResult Ref = exploreProgram(C.Prog, SeqPrune);
    EXPECT_FALSE(Ref.Truncated) << C.Id;
    EXPECT_FALSE(Ref.Leaks.empty()) << C.Id;
    for (unsigned Threads : {4u, 8u}) {
      ExplorerOptions Par = SeqPrune;
      Par.Threads = Threads;
      EXPECT_EQ(leakKeys(Ref), leakKeys(exploreProgram(C.Prog, Par)))
          << C.Id << " v4 stealing+pruning, Threads=" << Threads;
    }
  }
}

TEST(ParallelEngine, StealingReplaySnapshotsMatch) {
  // Prefix-replay nodes survive being stolen: the thief re-derives the
  // configuration from the node's shared checkpoint (immutable, behind a
  // shared_ptr) and its directive prefix — at short intervals and at
  // whole-prefix replay from the root checkpoint — and the full parallel
  // engine reproduces the sequential leak set.  v4 mode's hazard forks
  // give every Kocher variant a tree wide enough for workers to steal.
  for (const SuiteCase &C : kocherCases()) {
    ExploreResult Ref = exploreProgram(C.Prog, v4Mode());
    for (unsigned K : {2u, 16u, UINT_MAX}) {
      for (unsigned Threads : {4u, 8u}) {
        ExplorerOptions Opts = v4Mode();
        Opts.Snapshots = SnapshotPolicy::Hybrid;
        Opts.CheckpointInterval = K;
        Opts.Threads = Threads;
        ExploreResult R = exploreProgram(C.Prog, Opts);
        EXPECT_EQ(leakSet(Ref), leakSet(R))
            << C.Id << " K=" << K << " Threads=" << Threads;
      }
    }
  }
}

TEST(ParallelEngine, FigureProgramsMatchSequential) {
  for (const FigureCase &C : allFigures()) {
    ExplorerOptions Par = C.CheckOpts;
    Par.Threads = 4;
    ExploreResult A = exploreProgram(C.Prog, C.CheckOpts);
    ExploreResult B = exploreProgram(C.Prog, Par);
    EXPECT_EQ(leakSet(A), leakSet(B)) << C.Name;
    EXPECT_EQ(A.secure(), B.secure()) << C.Name;
  }
}

TEST(ParallelEngine, StopAtFirstLeakStillShortCircuits) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.Threads = 4;
  Opts.StopAtFirstLeak = true;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_FALSE(R.secure());
  EXPECT_GE(R.Leaks.size(), 1u);
}

//===--------------------------------------------------- snapshot policy ---===//

TEST(SnapshotPolicy, WholePrefixReplayMatchesCopy) {
  for (const FigureCase &C : {figure1(), figure6(), figure7()}) {
    ExplorerOptions Copy = C.CheckOpts;
    Copy.Snapshots = SnapshotPolicy::Copy;
    ExploreResult A = exploreProgram(C.Prog, Copy);
    ExploreResult B = exploreProgram(C.Prog, wholePrefixReplay(C.CheckOpts));
    EXPECT_EQ(leakSet(A), leakSet(B)) << C.Name;
    EXPECT_EQ(A.SchedulesCompleted, B.SchedulesCompleted) << C.Name;
    EXPECT_EQ(A.TotalSteps, B.TotalSteps) << C.Name;
  }
}

TEST(SnapshotPolicy, HybridMatchesCopyOnKocher) {
  // SnapshotPolicy::Hybrid yields identical leak sets to Copy — here on
  // every Kocher variant in both modes and at several checkpoint
  // intervals up to whole-prefix replay (UINT_MAX), with the sequential
  // counters identical too (materialization replays never touch budgets).
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      ExplorerOptions Copy = ModeFn();
      Copy.Snapshots = SnapshotPolicy::Copy;
      ExploreResult A = exploreProgram(C.Prog, Copy);

      for (unsigned K : {1u, 4u, 16u, 64u, UINT_MAX}) {
        ExplorerOptions Hybrid = ModeFn();
        Hybrid.Snapshots = SnapshotPolicy::Hybrid;
        Hybrid.CheckpointInterval = K;
        ExploreResult H = exploreProgram(C.Prog, Hybrid);
        EXPECT_EQ(leakSet(A), leakSet(H)) << C.Id << " hybrid K=" << K;
        EXPECT_EQ(A.TotalSteps, H.TotalSteps) << C.Id << " K=" << K;
        EXPECT_EQ(A.SchedulesCompleted, H.SchedulesCompleted)
            << C.Id << " K=" << K;
        EXPECT_EQ(A.Truncated, H.Truncated) << C.Id << " K=" << K;
      }
    }
  }
}

TEST(SnapshotPolicy, HybridBoundsReplayWorkByInterval) {
  // The hybrid's contract: smaller K means more checkpoints and less
  // replayed work.  On a fixed tree both counters must move
  // monotonically with K (sequential drain, so they are deterministic).
  FigureCase C = figure7();
  uint64_t PrevCheckpoints = ~0ull, PrevReplay = 0;
  for (unsigned K : {1u, 8u, 64u, UINT_MAX}) {
    ExplorerOptions Opts = C.CheckOpts;
    Opts.Snapshots = SnapshotPolicy::Hybrid;
    Opts.CheckpointInterval = K;
    ExploreResult R = exploreProgram(C.Prog, Opts);
    EXPECT_LE(R.Checkpoints, PrevCheckpoints) << K;
    EXPECT_GE(R.ReplaySteps, PrevReplay) << K;
    PrevCheckpoints = R.Checkpoints;
    PrevReplay = R.ReplaySteps;
  }
  // Copy never replays; whole-prefix replay publishes only the root's
  // checkpoint.
  ExplorerOptions Copy = C.CheckOpts;
  ExploreResult RC = exploreProgram(C.Prog, Copy);
  EXPECT_EQ(RC.ReplaySteps, 0u);
  EXPECT_EQ(RC.Checkpoints, 0u);
  ExploreResult RR = exploreProgram(C.Prog, wholePrefixReplay(C.CheckOpts));
  EXPECT_EQ(RR.Checkpoints, 1u);
}

//===----------------------------------------------------------- budgets ---===//

TEST(Budgets, MaxTotalStepsTruncates) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.MaxTotalSteps = 4;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
}

TEST(Budgets, MaxSchedulesTruncates) {
  // The two-leak gadget explores more than one schedule; capping at one
  // completed schedule must truncate.
  Program P = twoLeakGadget();
  ExplorerOptions Opts;
  Opts.MaxSchedules = 1;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_LE(R.SchedulesCompleted, 1u);
}

TEST(Budgets, MaxLeaksTruncatesAndKeepsVerdictTrustworthy) {
  Program P = twoLeakGadget();
  // Unbounded: both distinct leaks are found.
  ExploreResult Full = exploreProgram(P, ExplorerOptions{});
  ASSERT_GE(Full.Leaks.size(), 2u);
  // Capped at one: storage exhausts mid-search, the result is truncated,
  // and secure() still reports the violation.
  ExplorerOptions Opts;
  Opts.MaxLeaks = 1;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.Leaks.size(), 1u);
  EXPECT_FALSE(R.secure());
}

TEST(Budgets, MaxStepsPerScheduleTruncatesOnlyThatPath) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.MaxStepsPerSchedule = 3;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
}

TEST(Budgets, TruncationIsReportedUnderParallelDrain) {
  Program P = twoLeakGadget();
  ExplorerOptions Opts;
  Opts.MaxLeaks = 1;
  Opts.Threads = 4;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_FALSE(R.secure());
  EXPECT_LE(R.Leaks.size(), Opts.MaxLeaks);
}

//===------------------------------------------------------ CheckSession ---===//

TEST(CheckSession, SingleCheckMatchesDirectExploration) {
  FigureCase C = figure1();
  CheckSession Session;
  CheckResult R = Session.check(C.Prog, C.CheckOpts);
  ExploreResult Direct = exploreProgram(C.Prog, C.CheckOpts);
  EXPECT_EQ(leakSet(R.Exploration), leakSet(Direct));
  EXPECT_EQ(R.Exploration.TotalSteps, Direct.TotalSteps);
  EXPECT_GE(R.Seconds, 0.0);
}

TEST(CheckSession, CheckManyMatchesIndividualChecks) {
  std::vector<SuiteCase> Cases = kocherCases();
  std::vector<Program> Progs;
  for (size_t I = 0; I < 6 && I < Cases.size(); ++I)
    Progs.push_back(Cases[I].Prog);

  SessionOptions SOpts;
  SOpts.Threads = 4;
  SOpts.DefaultOpts = v4Mode();
  CheckSession Session(SOpts);
  std::vector<CheckResult> Batch =
      Session.checkMany(std::span<const Program>(Progs));
  ASSERT_EQ(Batch.size(), Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    ExploreResult Direct = exploreProgram(Progs[I], v4Mode());
    EXPECT_EQ(leakSet(Batch[I].Exploration), leakSet(Direct)) << I;
    EXPECT_EQ(Batch[I].secure(), Direct.secure()) << I;
  }
}

TEST(CheckSession, BatchRequestsHonorPerRequestOptions) {
  // Figure 7 leaks only with forwarding-hazard detection: the same
  // program under both modes in one batch must split verdicts.
  FigureCase C = figure7();
  CheckRequest Reqs[2];
  Reqs[0].Id = "no-fwd";
  Reqs[0].Prog = C.Prog;
  Reqs[0].Opts = v1v11Mode();
  Reqs[1].Id = "fwd";
  Reqs[1].Prog = C.Prog;
  Reqs[1].Opts = v4Mode();

  SessionOptions SOpts;
  SOpts.Threads = 2;
  CheckSession Session(SOpts);
  std::vector<CheckResult> Results =
      Session.checkMany(std::span<const CheckRequest>(Reqs));
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Id, "no-fwd");
  EXPECT_EQ(Results[1].Id, "fwd");
  EXPECT_TRUE(Results[0].secure());
  EXPECT_FALSE(Results[1].secure());
}

TEST(CheckSession, CustomInitialConfiguration) {
  // Checking from a mutated-secret configuration through the request's
  // Init field (the differential drivers' path through the API).
  FigureCase C = figure1();
  CheckRequest Req;
  Req.Prog = C.Prog;
  Req.Opts = C.CheckOpts;
  Req.Init = mutateSecrets(C.Prog, Configuration::initial(C.Prog), 7);
  CheckSession Session;
  CheckResult R = Session.check(Req);
  EXPECT_FALSE(R.secure());
}

TEST(CheckSession, SuiteRunnerMatchesExpectations) {
  SessionOptions SOpts;
  SOpts.Threads = 4;
  CheckSession Session(SOpts);
  std::vector<SuiteCase> Cases = kocherCases();
  std::vector<SuiteVerdict> Verdicts =
      runSuite(Session, std::span<const SuiteCase>(Cases));
  ASSERT_EQ(Verdicts.size(), Cases.size());
  EXPECT_TRUE(allMatch(Verdicts));
}

//===------------------------------------------------------ session flags ---===//

SessionArgs parseFlags(std::vector<const char *> Args) {
  Args.insert(Args.begin(), "driver");
  return parseSessionArgs(static_cast<int>(Args.size()),
                          const_cast<char **>(Args.data()));
}

TEST(SessionArgs, NumericFlagsParseWholeInRangeValuesOnly) {
  SessionArgs Ok = parseFlags({"--threads", "3", "--minimize-budget",
                               "18446744073709551615", "--worker-timeout",
                               "2.5", "--checkpoint-interval", "8"});
  EXPECT_TRUE(Ok.Error.empty()) << Ok.Error;
  EXPECT_EQ(Ok.Opts.Threads, 3u);
  EXPECT_EQ(Ok.Opts.Passes.Minimize.MaxReplays, UINT64_MAX);
  EXPECT_EQ(Ok.Opts.WorkerTimeoutSec, 2.5);
  EXPECT_EQ(Ok.Opts.DefaultOpts.Snapshots, SnapshotPolicy::Hybrid);
  EXPECT_EQ(Ok.Opts.DefaultOpts.CheckpointInterval, 8u);

  // A sign, junk, a partial number, an empty word, or a value the field
  // cannot hold is reported and leaves the option at its default (a -1
  // thread count used to wrap to 4294967295 workers).
  for (const char *Bad : {"-1", "abc", "4x", "", "4294967296", " 4"}) {
    SessionArgs R = parseFlags({"--threads", Bad});
    EXPECT_EQ(R.Error, std::string("invalid value '") + Bad +
                           "' for --threads N");
    EXPECT_EQ(R.Opts.Threads, std::thread::hardware_concurrency()) << Bad;
    EXPECT_TRUE(R.Consumed[1] && R.Consumed[2]) << Bad;
  }
  for (const char *Bad : {"-1", "nan", "inf", "1s"})
    EXPECT_FALSE(parseFlags({"--worker-timeout", Bad}).Error.empty()) << Bad;
  SessionArgs K = parseFlags({"--checkpoint-interval", "x"});
  EXPECT_FALSE(K.Error.empty());
  EXPECT_EQ(K.Opts.DefaultOpts.Snapshots, SnapshotPolicy::Copy);

  // The first malformed flag is the one reported.
  EXPECT_EQ(parseFlags({"--workers", "two", "--threads", "-1"}).Error,
            "invalid value 'two' for --workers N");
  // The frontier is no longer configurable: --shards is left unconsumed.
  EXPECT_FALSE(parseFlags({"--shards", "2"}).Consumed[1]);
}

TEST(SessionArgs, DriverHelperExitsTwoOnMalformedValue) {
  // Re-execute instead of forking: earlier tests ran worker threads, and
  // a forked child would inherit their sanitizer state.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"driver", "--threads", "-1"};
  EXPECT_EXIT(sessionOptionsFromArgs(3, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(2),
              "invalid value '-1' for --threads N");
}

//===------------------------------------------- differential validation ---===//

TEST(Differential, ExplorerWitnessesAreConcretelyConfirmed) {
  FigureCase C = figure1();
  CheckSession Session;
  CheckRequest Req;
  Req.Id = C.Name;
  Req.Prog = C.Prog;
  Req.Opts = C.CheckOpts;
  DifferentialReport Rep = checkDifferential(Session, Req);
  ASSERT_FALSE(Rep.secure());
  EXPECT_EQ(Rep.Validation.Checked, Rep.Check.Exploration.Leaks.size());
  EXPECT_GE(Rep.Validation.Confirmed, 1u);
}

//===------------------------------------------------- COW configuration ---===//

TEST(CowMemory, ForkedConfigurationsAreIsolated) {
  FigureCase C = figure1();
  Configuration A = Configuration::initial(C.Prog);
  Configuration B = A; // O(1): cells shared until a side writes.
  EXPECT_TRUE(B.Mem.sharesCells() || A.Mem.cellCount() == 0);

  Value Before = A.Mem.load(0x40);
  B.Mem.store(0x40, Value(0xdead, Label::secret()));
  EXPECT_EQ(A.Mem.load(0x40), Before);
  EXPECT_EQ(B.Mem.load(0x40).Bits, 0xdeadu);
  EXPECT_FALSE(B.Mem.sharesCells());

  // Writing through the original afterwards must not leak into the fork.
  A.Mem.store(0x44, Value(7, Label::publicLabel()));
  EXPECT_NE(B.Mem.load(0x44).Bits, 7u);
}

//===------------------------------------------------------- leak keying ---===//

TEST(LeakKey, NoCollisionAcrossFieldBoundaries) {
  // The old shifted-XOR packing collided when fields crossed their 8-bit
  // lanes: (Rule=1, mask=0) and (Rule=0, mask=256) hashed equal.  The
  // hash-combine must separate them.
  LeakRecord A;
  A.Origin = 0;
  A.Obs = Observation::none();
  A.Obs.Payload = Value(0, Label::publicLabel());
  A.Rule = static_cast<RuleId>(1);
  LeakRecord B = A;
  B.Rule = static_cast<RuleId>(0);
  B.Obs.Payload = Value(0, Label::fromMask(256));
  EXPECT_NE(A.key(), B.key());

  // A wide taint mask must not cancel against the origin lane: under the
  // old packing, Origin=1 (<<24) collided with taint source 24 (2^24).
  LeakRecord C1 = A, C2 = A;
  C1.Origin = 1;
  C2.Origin = 0;
  C2.Obs.Payload = Value(0, Label::fromMask(uint64_t(1) << 24));
  EXPECT_NE(C1.key(), C2.key());
}

} // namespace
