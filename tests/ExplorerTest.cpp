//===- tests/ExplorerTest.cpp - Worst-case schedule exploration -------------===//

#include "sched/ScheduleExplorer.h"

#include "checker/FenceInsertion.h"
#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "sched/Executor.h"
#include "sched/RandomScheduler.h"
#include "sched/Schedule.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace sct;

namespace {

ExploreResult exploreProgram(const Program &P, const ExplorerOptions &Opts) {
  Machine M(P);
  return explore(M, Configuration::initial(P), Opts);
}

TEST(Explorer, StraightLinePublicProgramIsOneSchedule) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb
    start:
      ra = mov 1
      rb = add ra, 2
      store rb, [0x40]
      ra = load [0x40]
  )");
  ExplorerOptions Opts;
  Opts.ExploreForwardingHazards = false;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.secure());
  EXPECT_EQ(R.SchedulesCompleted, 1u);
  EXPECT_FALSE(R.Truncated);
}

TEST(Explorer, BranchDoublesTheScheduleCount) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    .init ra 1
    start:
      br ult ra, 4 -> a, b
    a:
      ra = mov 1
    b:
      ra = mov 2
  )");
  ExplorerOptions Opts;
  Opts.ExploreForwardingHazards = false;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_EQ(R.SchedulesCompleted, 2u); // Correct + mispredicted.
}

TEST(Explorer, StopAtFirstLeakShortCircuits) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  ExploreResult Full = exploreProgram(C.Prog, Opts);
  Opts.StopAtFirstLeak = true;
  ExploreResult Short = exploreProgram(C.Prog, Opts);
  EXPECT_FALSE(Short.secure());
  EXPECT_LE(Short.TotalSteps, Full.TotalSteps);
  EXPECT_EQ(Short.Leaks.size(), 1u);
}

TEST(Explorer, LeaksDeduplicateAcrossSchedules) {
  FigureCase C = figure1();
  ExploreResult R = exploreProgram(C.Prog, C.CheckOpts);
  ASSERT_FALSE(R.secure());
  // The same (origin, kind) leak shows up in many schedules but is
  // reported once; the raw event count keeps the tally.
  EXPECT_GE(R.LeakEvents, R.Leaks.size());
  for (size_t I = 0; I < R.Leaks.size(); ++I)
    for (size_t J = I + 1; J < R.Leaks.size(); ++J)
      EXPECT_NE(R.Leaks[I].key(), R.Leaks[J].key());
}

TEST(Explorer, BudgetsTruncateGracefully) {
  SuiteCase C = spectreV11Cases()[0];
  ExplorerOptions Opts = v1v11Mode();
  Opts.MaxTotalSteps = 10;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_LE(R.TotalSteps, 12u); // Allow the in-flight step to finish.
}

TEST(Explorer, ZeroSpeculationBoundStopsTruncated) {
  // A zero-entry reorder buffer can neither fetch nor hold anything to
  // execute or retire: the walk must stop at once, flagged Truncated (a
  // clean verdict here proves nothing), at any thread count.
  SuiteCase C = spectreV11Cases()[0];
  for (unsigned Threads : {1u, 4u}) {
    ExplorerOptions Opts = v1v11Mode();
    Opts.SpeculationBound = 0;
    Opts.Threads = Threads;
    ExploreResult R = exploreProgram(C.Prog, Opts);
    EXPECT_TRUE(R.Truncated) << "Threads=" << Threads;
    EXPECT_EQ(R.TotalSteps, 0u) << "Threads=" << Threads;
    EXPECT_TRUE(R.Leaks.empty()) << "Threads=" << Threads;
  }
}

TEST(Explorer, SpeculationBoundLimitsLeakDepth) {
  // A v1 gadget pushed deep behind the branch: a small speculation bound
  // cannot reach the leak, a larger one can — the tradeoff §4.2 reports.
  std::string Body = R"(
    .reg ra rb rc
    .init ra 9
    .region A   0x40 4 public
    .region Key 0x48 8 secret
    start:
      br ult ra, 4 -> body, end
    body:
  )";
  for (int Pad = 0; Pad < 10; ++Pad)
    Body += "      rc = add rc, 1\n";
  Body += R"(
      rb = load [0x40, ra]
      rc = load [0x44, rb]
    end:
  )";
  Program P = parseAsmOrDie(Body);

  ExplorerOptions Narrow = v1v11Mode();
  Narrow.SpeculationBound = 6; // Leak sits ~12 instructions deep.
  EXPECT_TRUE(exploreProgram(P, Narrow).secure());

  ExplorerOptions Wide = v1v11Mode();
  Wide.SpeculationBound = 20;
  EXPECT_FALSE(exploreProgram(P, Wide).secure());
}

TEST(Explorer, ExhaustiveForwardForksAgreeOnSuiteVerdicts) {
  // The targeted (shadowed-store) forks and the full B.18 fork set agree
  // on every v1.1/v4 case verdict.
  std::vector<SuiteCase> Cases = spectreV11Cases();
  for (const SuiteCase &C : spectreV4Cases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    ExplorerOptions Targeted = v4Mode();
    ExplorerOptions Exhaustive = v4Mode();
    Exhaustive.ExhaustiveForwardForks = true;
    ExploreResult A = exploreProgram(C.Prog, Targeted);
    ExploreResult B = exploreProgram(C.Prog, Exhaustive);
    EXPECT_EQ(A.secure(), B.secure()) << C.Id;
  }
}

TEST(Explorer, AliasPredictionAddsOnlyNewLeaks) {
  // Figure 2's gadget leaks only under alias prediction; Figure 1's leak
  // set is unchanged by enabling it.
  FigureCase F1 = figure1();
  ExplorerOptions Plain;
  ExplorerOptions WithAlias;
  WithAlias.ExploreAliasPrediction = true;
  ExploreResult A = exploreProgram(F1.Prog, Plain);
  ExploreResult B = exploreProgram(F1.Prog, WithAlias);
  EXPECT_EQ(A.secure(), B.secure());

  FigureCase F2 = figure2();
  EXPECT_TRUE(exploreProgram(F2.Prog, Plain).secure());
  EXPECT_FALSE(exploreProgram(F2.Prog, WithAlias).secure());
}

TEST(Explorer, WitnessSchedulesAreMinimalPrefixes) {
  // Each witness ends exactly at its leaking step.
  FigureCase C = figure7();
  ExploreResult R = exploreProgram(C.Prog, v4Mode());
  ASSERT_FALSE(R.secure());
  Machine M(C.Prog);
  for (const LeakRecord &L : R.Leaks) {
    RunResult Replay = runSchedule(M, Configuration::initial(C.Prog),
                                   L.Sched);
    ASSERT_FALSE(Replay.Stuck);
    EXPECT_TRUE(Replay.Trace.back().Obs.isSecret());
    // No earlier step of this schedule shows this same leak... the final
    // step is the first occurrence for minimal witnesses.
    EXPECT_EQ(Replay.Trace.back().Obs, L.Obs);
  }
}

TEST(Explorer, RetpolineSurvivesAllAttackerKnobs) {
  FigureCase C = figure13();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.ExploreAliasPrediction = true;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.secure());
}

} // namespace

namespace {

TEST(Explorer, SpectreV2ViaFunctionPointer) {
  // The indirect-call analogue of Figure 11: a vtable-style dispatch the
  // attacker mistrains toward a gadget.  Flagged only when the checker is
  // told the mistraining target, like jmpi.
  Program P = parseAsmOrDie(R"(
    .reg rf rc rd
    .init rf @handler
    .init rsp 0x20
    .region stack 0x18 9 public
    .region B   0x44 4 public
    .region Key 0x48 4 secret
    .data 0x48 5 6 7 8
    start:
      rc = load [0x48]       ; secret value in a register (public address)
      calli [rf]
    after:
      rd = mov 0
      jmp done
    gadget:
      rd = load [0x44, rc]   ; leaks rc
    handler:
      ret
    done:
  )");
  ExplorerOptions Plain;
  EXPECT_TRUE(exploreProgram(P, Plain).secure());
  ExplorerOptions Mistrained;
  Mistrained.IndirectTargets = {P.codeLabels().at("gadget")};
  ExploreResult R = exploreProgram(P, Mistrained);
  EXPECT_FALSE(R.secure());
  // The leak is in the gadget, with the secret in the address.
  ASSERT_FALSE(R.Leaks.empty());
  EXPECT_EQ(R.Leaks.front().Origin, P.codeLabels().at("gadget"));
}

} // namespace

namespace {

/// The branch probe the explorer ran before probeBranchCorrect became a
/// pure query: copy the configuration, fetch the branch guessing "true",
/// execute it, and read the rule.  Kept here only as the query's oracle.
std::optional<bool> copyingProbe(const Machine &M, const Configuration &C) {
  Configuration T = C;
  BufIdx I = T.Buf.nextIndex();
  if (!M.step(T, Directive::fetchBool(true)))
    return std::nullopt;
  auto Out = M.step(T, Directive::execute(I));
  if (!Out)
    return std::nullopt;
  return Out->Rule == RuleId::CondExecuteCorrect;
}

struct ProbeTally {
  size_t Points = 0;
  size_t Fenced = 0;
  size_t Unresolved = 0;
};

/// Walks \p P along a seeded random schedule within \p Mode's speculation
/// bound and, at every point where the next fetch is a conditional
/// branch, checks the pure query against the copying oracle.  Behind an
/// in-flight fence the query is not asked — the explorer never fetches
/// there (it asserts so) — and the oracle must find the branch blocked.
void checkProbesAlongWalk(const Program &P, const ExplorerOptions &Mode,
                          uint64_t Seed, ProbeTally &Tally) {
  Machine M(P);
  RandomRunOptions Ropts;
  Ropts.Seed = Seed;
  Ropts.MaxSteps = 300;
  Ropts.SpeculationWindow = std::min<size_t>(Mode.SpeculationBound, 40);
  RunResult Run = runRandom(M, Configuration::initial(P), Ropts);
  Configuration C = Configuration::initial(P);
  auto Check = [&] {
    if (!P.contains(C.N) || P.at(C.N).kind() != InstrKind::Branch)
      return;
    if (C.Buf.hasFenceBefore(C.Buf.nextIndex())) {
      ++Tally.Fenced;
      ASSERT_EQ(copyingProbe(M, C), std::nullopt)
          << "seed " << Seed << " at pc " << C.N;
      return;
    }
    ++Tally.Points;
    std::optional<bool> Query = probeBranchCorrect(M, C);
    ASSERT_EQ(Query, copyingProbe(M, C))
        << "seed " << Seed << " at pc " << C.N;
    Tally.Unresolved += !Query;
  };
  Check();
  for (const StepRecord &S : Run.Trace) {
    ASSERT_TRUE(M.step(C, S.D).has_value());
    Check();
  }
}

// probeBranchCorrect answers, without copying the configuration, what the
// explorer's former probe computed by stepping a copy — on every suite
// and figure, in both checking modes, including the unresolved-condition
// case where both answer nullopt.  The fenced loop also reaches branch
// fetches behind an in-flight fence, where no execute can run: outside
// the query's domain, and why the explorer defers fetch there.
TEST(Explorer, BranchProbeQueryMatchesCopyingProbe) {
  std::vector<std::pair<std::string, Program>> Progs;
  for (auto Suite : {cryptoCases, kocherCases, spectreV11Cases,
                     spectreV4Cases})
    for (SuiteCase &C : Suite())
      Progs.emplace_back(C.Id, std::move(C.Prog));
  for (FigureCase &F : allFigures())
    Progs.emplace_back(F.Name, std::move(F.Prog));
  // The suites carry no fences; this loop fences its bounds check, so
  // its walks reach branches both behind an in-flight fence and after
  // the fence retired.
  Progs.emplace_back("fenced-loop", parseAsmOrDie(R"(
    .reg ra rb
    start:
      fence
      br ult ra, 4 -> body, end
    body:
      rb = load [0x40, ra]
      ra = add ra, 1
      jmp start
    end:
  )"));
  ProbeTally Tally;
  for (const auto &[Id, P] : Progs)
    for (const ExplorerOptions &Mode : {v1v11Mode(), v4Mode()})
      for (uint64_t Seed : {1, 2}) {
        SCOPED_TRACE(Id);
        checkProbesAlongWalk(P, Mode, Seed, Tally);
      }
  EXPECT_GT(Tally.Points, 100u);
  EXPECT_GT(Tally.Fenced, 0u);
  EXPECT_GT(Tally.Unresolved, 0u);

  // A branch whose targets coincide is correctly predicted whatever its
  // condition, once the condition resolves.
  Program Same = parseAsmOrDie(R"(
    .reg ra rb
    .init ra 7
    start:
      rb = load [0x40]
      br ult ra, 4 -> two, two
    two:
      br ult rb, 4 -> next, next
    next:
      ra = mov 0
  )");
  Machine M(Same);
  Configuration C = Configuration::initial(Same);
  ASSERT_TRUE(M.step(C, Directive::fetch()).has_value()); // rb = load
  EXPECT_EQ(probeBranchCorrect(M, C), std::optional<bool>(true));
  EXPECT_EQ(copyingProbe(M, C), std::optional<bool>(true));
  ASSERT_TRUE(M.step(C, Directive::fetchBool(true)).has_value());
  // rb's load is still unresolved: both probes cannot tell.
  EXPECT_EQ(probeBranchCorrect(M, C), std::nullopt);
  EXPECT_EQ(copyingProbe(M, C), std::nullopt);
}

/// FNV-1a over a string: a digest that does not depend on the library's
/// own hashing, so it pins schedules even across fingerprint changes.
uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// One pinned Table 2 exploration: the counters a single-threaded run
/// reports, plus a digest over every leak's key and raw schedule in
/// result order.
struct PinnedRun {
  const char *Id;
  uint64_t TotalSteps;
  uint64_t SchedulesCompleted;
  uint64_t LeakEvents;
  uint64_t ConfigsForked;
  uint64_t PrunedNodes;
  uint64_t RobBytesCopied;
  bool Truncated;
  size_t Leaks;
  uint64_t LeakDigest;
};

// ARCHITECTURE.md invariant 2: one thread is bit-for-bit deterministic.
// The Table 2 corpus (8 crypto models x {v1v11, v4}, step budget 2^20,
// the perfbench `table2` workload) is explored at Threads = 1 and every
// counter, leak key and witness schedule must equal the recorded values.
// Hot-path rewrites of the machine, the reorder buffer or the explorer
// must leave all of them unchanged; a deliberate semantic change updates
// the table.
TEST(Explorer, Table2CorpusIsBitForBitDeterministicAtOneThread) {
  static const PinnedRun Pinned[] = {
    {"donna-c/v1v11", 3174, 6, 0, 5, 0, 8192, false, 0, 0xcbf29ce484222325ull},
    {"donna-c/v4", 2085, 5, 0, 14, 6, 2304, false, 0, 0xcbf29ce484222325ull},
    {"donna-fact/v1v11", 845, 1, 0, 0, 0, 0, false, 0, 0xcbf29ce484222325ull},
    {"donna-fact/v4", 935, 1, 0, 0, 0, 0, false, 0, 0xcbf29ce484222325ull},
    {"secretbox-c/v1v11", 104, 2, 1, 1, 0, 160, false, 1,
     0x64844043af0aecb9ull},
    {"secretbox-c/v4", 104, 2, 1, 1, 0, 160, false, 1, 0x848874582b07ae7dull},
    {"secretbox-fact/v1v11", 51, 1, 0, 0, 0, 0, false, 0,
     0xcbf29ce484222325ull},
    {"secretbox-fact/v4", 51, 1, 0, 0, 0, 0, false, 0, 0xcbf29ce484222325ull},
    {"ssl3-c/v1v11", 709899, 7979, 1669, 72386, 64408, 11341856, false, 1,
     0xc48b60b42ccc468dull},
    {"ssl3-c/v4", 117012, 1528, 295, 14332, 12805, 1817312, false, 1,
     0xc48b60b42ccc468dull},
    {"ssl3-fact/v1v11", 66, 1, 0, 0, 0, 0, false, 0, 0xcbf29ce484222325ull},
    {"ssl3-fact/v4", 74, 1, 1, 0, 0, 0, false, 1, 0x73ac1353ffa35b17ull},
    {"mee-c/v1v11", 1048577, 7328, 2, 7356, 0, 9240864, true, 1,
     0xf45be8a595956c6full},
    {"mee-c/v4", 115402, 1480, 9, 11212, 9733, 1509504, false, 1,
     0xf45be8a595956c6full},
    {"mee-fact/v1v11", 60, 2, 0, 1, 0, 192, false, 0, 0xcbf29ce484222325ull},
    {"mee-fact/v4", 90, 2, 1, 1, 0, 96, false, 1, 0x1c029ce81ae98eb7ull},
  };
  size_t Row = 0;
  for (const SuiteCase &C : cryptoCases()) {
    for (bool V4 : {false, true}) {
      std::string Id = C.Id + (V4 ? "/v4" : "/v1v11");
      ExplorerOptions Opts = V4 ? v4Mode() : v1v11Mode();
      Opts.MaxTotalSteps = uint64_t(1) << 20;
      Opts.Threads = 1;
      ExploreResult R = exploreProgram(C.Prog, Opts);
      uint64_t Digest = 0xcbf29ce484222325ull;
      for (const LeakRecord &L : R.Leaks)
        Digest = fnv1a(std::to_string(L.key()) + ":" +
                           printSchedule(L.Sched) + ";",
                       Digest);
      ASSERT_LT(Row, std::size(Pinned));
      const PinnedRun &E = Pinned[Row++];
      EXPECT_EQ(Id, E.Id);
      EXPECT_EQ(R.TotalSteps, E.TotalSteps) << Id;
      EXPECT_EQ(R.SchedulesCompleted, E.SchedulesCompleted) << Id;
      EXPECT_EQ(R.LeakEvents, E.LeakEvents) << Id;
      EXPECT_EQ(R.ConfigsForked, E.ConfigsForked) << Id;
      EXPECT_EQ(R.PrunedNodes, E.PrunedNodes) << Id;
      EXPECT_EQ(R.RobBytesCopied, E.RobBytesCopied) << Id;
      EXPECT_EQ(R.Truncated, E.Truncated) << Id;
      EXPECT_EQ(R.Leaks.size(), E.Leaks) << Id;
      EXPECT_EQ(Digest, E.LeakDigest) << Id;
    }
  }
  EXPECT_EQ(Row, std::size(Pinned));
}

//===------------------------------------------- fetch waits for fences ---===//

/// The v4-mode leak keys of a single-threaded walk, and the walk itself.
std::set<uint64_t> v4LeakKeys(const Program &P, ExploreResult &R) {
  ExplorerOptions Opts = v4Mode();
  Opts.Threads = 1;
  R = exploreProgram(P, Opts);
  EXPECT_FALSE(R.Truncated);
  std::set<uint64_t> Keys;
  for (const LeakRecord &L : R.Leaks)
    Keys.insert(L.key());
  return Keys;
}

/// The random programs below are perfbench's audit corpus, seed 2, draw
/// 0 (programs #9, #68 and #56), copied with their common header
/// factored out: tests do not link the benchmark.
constexpr const char *AuditPrelude = R"(
  .reg r0 r1 r2 r3
  .init rsp 0x3F
  .region stack 0x30 16 public
  .region pub 0x40 8 public
  .region sec 0x48 8 secret
  .region table 0x60 32 public
)";

// Program #9: three mispredicted branches reach `store r3, [76, r3]` (pc
// 11) with a secret r3 before the fence.  Its address leaks only through
// the store-forwarding fork that resolves it early; when fetch ran past
// the fence, the post-fence load at i10 opened that fork.  With fetch
// deferred, the fence's own fetch must open it, or the leak is lost.
TEST(Explorer, FenceFetchOpensTheForwardingForksOfPostFenceLoads) {
  Program P = parseAsmOrDie(std::string(AuditPrelude) + R"(
    .init r0 2
    .init r1 9
    .init r2 7
    .init r3 8
    .data 64 2 6 3 7 0 0 6 2 6 4 4 5 5 2 7 4
    .data 96 2 6 4 5 4 0 4 7 5 4 4 4 2 0 2 3 0 1 7 6 6 6 4 2 0 7 1 4 5 7 2 7
    .entry i0
    i0:
      r3 = load [73]
    i1:
      br ult r0, 8 -> g1, i2
    g1:
      r2 = load [0x40, r0]
      r1 = load [0x60, r2]
    i2:
      br ult r0, 8 -> g2, i3
    g2:
      r3 = load [0x40, r0]
      r0 = load [0x60, r3]
    i3:
      r2 = and 10, r2
    i4:
      br ult r2, 8 -> g4, i5
    g4:
      r1 = load [0x40, r2]
      r3 = load [0x60, r1]
    i5:
      store r3, [76, r3]
    i6:
      r2 = mov 19
    i7:
      r2 = mov 28
    i8:
      fence
    i9:
      r0 = mov 24
    i10:
      r2 = load [75]
    i11:
      r3 = mul r0, 11
    i12:
      r2 = mov 13
    i13:
      r2 = sub 4, 6
    i14:
      store r2, [68, r0]
    i15:
      r2 = mov 5
    i16:
      call leaf
      jmp end
    leaf:
      r3 = add 15, r1
      ret
    end:
      r0 = mov 0
  )");
  ExploreResult R;
  // store-execute-addr-ok at pc 11.
  EXPECT_EQ(v4LeakKeys(P, R), std::set<uint64_t>{0xdd40f1d8727edde7ull});

  // Program #68: the same shape with the fence right after the store.
  Program P68 = parseAsmOrDie(std::string(AuditPrelude) + R"(
    .init r0 10
    .init r1 10
    .init r2 8
    .init r3 4
    .data 64 1 2 5 3 0 6 4 0 4 5 2 0 7 7 3 4
    .data 96 5 4 6 4 4 2 6 5 3 2 5 2 3 6 7 6 0 2 2 5 1 5 0 5 1 5 6 6 5 5 4 5
    .entry i0
    i0:
      r1 = mov 25
    i1:
      br ne 4, r0 -> i2, i3
    i2:
      r1 = load [68]
    i3:
      r2 = load [67]
    i4:
      br ult r0, 8 -> g4, i5
    g4:
      r0 = load [0x40, r0]
      r2 = load [0x60, r0]
    i5:
      r2 = load [67, r2]
    i6:
      store r2, [75, r0]
    i7:
      fence
    i8:
      store 15, [65]
    i9:
      br eq 14, r1 -> i12, i11
    i10:
      r1 = load [67, 0]
    i11:
      r0 = shr r2, 1
    i12:
      r3 = mov 27
    i13:
      r0 = mov 6
    i14:
      r1 = load [64, 0]
    i15:
      r0 = xor r0, 0
    i16:
      r0 = mov 0
  )");
  // load-execute-nodep at pc 6 and store-execute-addr-ok at pc 8.
  EXPECT_EQ(v4LeakKeys(P68, R),
            (std::set<uint64_t>{0x55e6ee47d45a2be4ull, 0x88fbbb85aaa85a2eull}));
}

// Program #56: a v4 leak the walk found only once fetch stopped passing
// the fence (the earlier walk completed and reported the program clean;
// SPS does not model v4 mode).  Its witness must replay strictly.
TEST(Explorer, DeferredFenceFetchFindsAReplayableV4Leak) {
  Program P = parseAsmOrDie(std::string(AuditPrelude) + R"(
    .init r0 12
    .init r1 7
    .init r2 13
    .init r3 1
    .data 64 0 0 6 0 7 2 3 7 0 4 6 7 4 3 3 2
    .data 96 6 2 7 3 4 0 3 7 4 1 4 3 0 2 2 2 3 7 2 2 7 2 5 6 4 7 7 1 7 1 3 2
    .entry i0
    i0:
      br ult r1, 8 -> g0, i1
    g0:
      r2 = load [0x40, r1]
      r1 = load [0x60, r2]
    i1:
      store r2, [69]
    i2:
      r0 = mov 7
    i3:
      r2 = mov 4
    i4:
      fence
    i5:
      br eq 5, 13 -> i7, i7
    i6:
      br eq 10, r0 -> i8, i8
    i7:
      r2 = load [71, 2]
    i8:
      r2 = load [66, 1]
    i9:
      r1 = load [71, 0]
    i10:
      call leaf
      jmp end
    leaf:
      r1 = add r3, r1
      ret
    end:
      r0 = mov 0
  )");
  ExploreResult R;
  // load-execute-nodep at pc 2: the table lookup on a secret index.
  EXPECT_EQ(v4LeakKeys(P, R), std::set<uint64_t>{0x30e9570bfafe42b3ull});
  Machine M(P);
  for (const LeakRecord &L : R.Leaks) {
    RunResult Replay = runSchedule(M, Configuration::initial(P), L.Sched);
    ASSERT_FALSE(Replay.Stuck) << Replay.StuckReason;
    ASSERT_FALSE(Replay.Trace.empty());
    EXPECT_EQ(Replay.Trace.back().Obs, L.Obs);
    EXPECT_EQ(Replay.Trace.back().Rule, L.Rule);
    EXPECT_TRUE(Replay.Trace.back().Obs.isSecret());
  }
}

// Fenced kocher-05 once grew a tree exponential in the speculation window
// (8,388,608 steps, budget-truncated): every branch fetched behind an
// in-flight fence forked both ways with no depth gate.  With fetch
// waiting for the fence the walk is finite and short.
TEST(Explorer, FencedKocher05WalkIsCompleteAndShort) {
  const std::vector<SuiteCase> Cases = kocherCases();
  auto It = std::find_if(Cases.begin(), Cases.end(), [](const SuiteCase &C) {
    return C.Id == "kocher-05";
  });
  ASSERT_NE(It, Cases.end());
  MitigationResult FR =
      FenceInsertion(FencePolicy::BranchTargets).run(It->Prog);
  ASSERT_TRUE(FR.ok());
  ExplorerOptions Opts = v1v11Mode();
  Opts.Threads = 1;
  ExploreResult R = exploreProgram(FR.Prog, Opts);
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.secure());
  EXPECT_LT(R.TotalSteps, 10000u);
}

} // namespace
