//===- tests/HashEquivalenceTest.cpp - Incremental fingerprint oracle -------===//
//
// The incremental-hash maintenance contract (ARCHITECTURE.md invariant 4):
// every component keeps its fingerprint as a running XOR-multiset updated
// at each mutation, and `hash()` must be *bit-equal* to the full-walk
// oracle `hashFromScratch()` at every reachable configuration.  The
// explorer's seen-state pruning keys on these values, so a maintenance
// bug silently changes which subtrees get explored — this suite is the
// tripwire.
//
// Properties, over random programs and random well-formed schedules
// (which exercise fetch/execute/retire, store forwarding, hazard
// rollbacks, and RSB push/pop):
//   - whole-configuration and per-component incremental == from-scratch
//     after every single step;
//   - copy-on-write sharing and unsharing (configuration copies that then
//     diverge, with or without the explorer's foldPending() before the
//     copy) preserves both sides' fingerprints;
//   - the remap-aware hash under an identity remap equals the plain hash
//     (the full-walk fallback path used by mitigation re-check reuse);
//   - the reorder buffer's control index and chunk destination masks
//     answer exactly what full scans answer, across forks and rollbacks;
//   - the flat copy-on-write memory agrees with a reference map oracle on
//     every load, and is canonical: store order and default-valued cells
//     do not affect equality or the fingerprint.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "core/Configuration.h"
#include "sched/RandomScheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>

using namespace sct;

namespace {

/// Asserts the incremental fingerprint of every component — and their
/// chained combination — against the full-walk oracles.
void expectHashesMatchScratch(const Configuration &C, uint64_t Seed,
                              size_t Step) {
  ASSERT_EQ(C.Regs.hash(), C.Regs.hashFromScratch())
      << "registers diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Mem.hash(), C.Mem.hashFromScratch())
      << "memory diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Buf.hash(), C.Buf.hashFromScratch())
      << "reorder buffer diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Rsb.hash(), C.Rsb.hashFromScratch())
      << "RSB diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.hash(), C.hashFromScratch())
      << "configuration diverged; seed " << Seed << " step " << Step;
}

class HashEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashEquivalence, IncrementalMatchesScratchEveryStep) {
  uint64_t Seed = GetParam();
  RandomProgramOptions POpts;
  POpts.WithJumpI = (Seed % 3 == 0); // Mix in indirect control flow.
  Program P = randomProgram(Seed, POpts);
  ASSERT_TRUE(P.validate().empty());
  Machine M(P);
  Configuration Init = Configuration::initial(P);
  expectHashesMatchScratch(Init, Seed, 0);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 131 + 17;
  Ropts.MaxSteps = 300;
  RunResult R = runRandom(M, Init, Ropts);

  Configuration C = Init;
  size_t Step = 0;
  for (const StepRecord &S : R.Trace) {
    ASSERT_TRUE(M.step(C, S.D).has_value());
    expectHashesMatchScratch(C, Seed, ++Step);
  }
}

TEST_P(HashEquivalence, CowUnsharePreservesBothFingerprints) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);
  Configuration Init = Configuration::initial(P);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 977 + 3;
  Ropts.MaxSteps = 200;
  RunResult R = runRandom(M, Init, Ropts);
  if (R.Trace.size() < 4)
    GTEST_SKIP() << "run too short to fork";

  // Fork mid-run (the explorer's fork pattern: a plain copy, memory cells
  // COW-shared), then advance the two sides along different suffixes.
  // The explorer folds the parent's pending buffer contributions before
  // every fork under PruneSeen, so the copy then shares folded chunk
  // refs; both shapes must keep both sides' fingerprints exact.
  size_t Half = R.Trace.size() / 2;
  for (bool FoldBeforeCopy : {false, true}) {
    SCOPED_TRACE(FoldBeforeCopy ? "foldPending() before the copy"
                                : "plain copy");
    Configuration A = Init;
    for (size_t I = 0; I < Half; ++I)
      ASSERT_TRUE(M.step(A, R.Trace[I].D).has_value());
    if (FoldBeforeCopy) {
      uint64_t Unfolded = A.hashFromScratch();
      A.Buf.foldPending();
      ASSERT_EQ(A.hash(), Unfolded);
    }
    Configuration B = A;
    EXPECT_TRUE(B.Mem.sharesCells() || A.Mem.cellCount() == 0);
    ASSERT_EQ(A.hash(), B.hash());

    for (size_t I = Half; I < R.Trace.size(); ++I)
      ASSERT_TRUE(M.step(A, R.Trace[I].D).has_value());

    RandomRunOptions BOpts;
    BOpts.Seed = Seed * 613 + 41;
    BOpts.MaxSteps = 100;
    RunResult RB = runRandom(M, B, BOpts);
    for (const StepRecord &S : RB.Trace)
      ASSERT_TRUE(M.step(B, S.D).has_value());

    // Both sides' incremental fingerprints survived the unsharing writes.
    expectHashesMatchScratch(A, Seed, Half + 1000);
    expectHashesMatchScratch(B, Seed, Half + 2000);
  }
}

/// The trivial remap: every point maps to itself.  Under it the
/// remap-aware full-walk hash must reproduce the plain fingerprint — the
/// property the mitigation reuse filter's commensurability rests on.
struct IdentityRemap final : PcRemap {
  std::optional<PC> target(PC N) const override { return N; }
  std::optional<PC> instr(PC N) const override { return N; }
};

TEST_P(HashEquivalence, IdentityRemapEqualsPlainHash) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);
  Configuration C = Configuration::initial(P);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 389 + 11;
  Ropts.MaxSteps = 150;
  RunResult R = runRandom(M, C, Ropts);

  IdentityRemap Id;
  size_t Step = 0;
  for (const StepRecord &S : R.Trace) {
    ASSERT_TRUE(M.step(C, S.D).has_value());
    ++Step;
    if (Step % 7 != 0) // Sample; the walk is O(state).
      continue;
    std::optional<uint64_t> H = C.hash(Id);
    ASSERT_TRUE(H.has_value()) << "identity remap refused a point";
    EXPECT_EQ(*H, C.hash()) << "seed " << Seed << " step " << Step;
    std::optional<uint64_t> BufH = C.Buf.hash(Id);
    ASSERT_TRUE(BufH.has_value());
    EXPECT_EQ(*BufH, C.Buf.hash());
  }
}

//===------------------------------------------------ flat memory oracle ---===//

TEST_P(HashEquivalence, FlatMemoryMatchesReferenceMap) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Configuration Init = Configuration::initial(P);
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);

  // Addresses stay inside the regions randomProgram maps (stack + pub +
  // sec); values are sampled from the initial contents so secret-labelled
  // values circulate too.
  auto RandomAddr = [&] { return 0x30 + Rng() % 0x20; };
  auto RandomVal = [&] { return Init.Mem.load(0x40 + Rng() % 0x10); };

  Memory Flat = Init.Mem;
  std::map<uint64_t, Value> Oracle; // Reference: last store wins.
  for (unsigned I = 0; I < 200; ++I) {
    uint64_t A = RandomAddr();
    Value V = RandomVal();
    Flat.store(A, V);
    Oracle[A] = V;
    ASSERT_EQ(Flat.hash(), Flat.hashFromScratch()) << "store " << I;
  }
  for (uint64_t A = 0x30; A < 0x50; ++A) {
    auto It = Oracle.find(A);
    Value Expect = It != Oracle.end() ? It->second : Init.Mem.load(A);
    EXPECT_EQ(Flat.load(A), Expect) << "addr " << A;
  }
  // forEachCell visits ascending addresses, covering every stored cell.
  uint64_t Prev = 0;
  bool First = true;
  size_t Visited = 0;
  Flat.forEachCell([&](uint64_t A, const Value &V) {
    EXPECT_TRUE(First || A > Prev) << "visit order not ascending";
    First = false;
    Prev = A;
    ++Visited;
    auto It = Oracle.find(A);
    if (It != Oracle.end())
      EXPECT_EQ(V, It->second);
  });
  EXPECT_GE(Visited, Oracle.size());
}

TEST_P(HashEquivalence, MemoryEqualityIsStoreOrderAndDefaultCanonical) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Configuration Init = Configuration::initial(P);
  std::mt19937_64 Rng(Seed * 0x2545f4914f6cdd1dull + 7);

  // Distinct addresses, so permuting the stores preserves final content.
  std::vector<std::pair<uint64_t, Value>> Writes;
  for (uint64_t A = 0x30; A < 0x48; ++A)
    if (Rng() % 2)
      Writes.push_back({A, Init.Mem.load(0x40 + Rng() % 0x10)});

  Memory Fwd = Init.Mem, Rev = Init.Mem;
  for (const auto &[A, V] : Writes)
    Fwd.store(A, V);
  for (auto It = Writes.rbegin(); It != Writes.rend(); ++It)
    Rev.store(It->first, It->second);
  EXPECT_TRUE(Fwd == Rev);
  EXPECT_EQ(Fwd.hash(), Rev.hash());

  // Storing an address's default value materialises a cell but must be
  // invisible to both equality and the fingerprint (default-canonical).
  Memory Padded = Fwd;
  uint64_t Untouched = 0x48;
  while (std::any_of(Writes.begin(), Writes.end(),
                     [&](const auto &W) { return W.first == Untouched; }))
    ++Untouched;
  Padded.store(Untouched, Init.Mem.load(Untouched));
  EXPECT_TRUE(Padded == Fwd);
  EXPECT_EQ(Padded.hash(), Fwd.hash());
  EXPECT_EQ(Padded.hash(), Padded.hashFromScratch());
}

// The chunked reorder buffer's structural sharing: a copy shares sealed
// chunks until one side writes through mut(), which must unshare just
// that chunk and leave BOTH sides' incremental fingerprints bit-equal to
// their oracles.  Drives the buffer directly (pushes across several
// chunk seals, retires across chunk seams, rollbacks into sealed
// territory, in-place rewrites) so every unshare path runs, interleaved
// on both sides of a fork.
TEST_P(HashEquivalence, ChunkUnshareOnMutateKeepsForksOracleEqual) {
  uint64_t Seed = GetParam();
  std::mt19937_64 Rng(Seed * 0x6a09e667f3bcc909ull + 5);
  auto RandomEntry = [&](PC N) {
    switch (Rng() % 3) {
    case 0:
      return TransientInstr::makeJump(PC(Rng() % 64), N);
    case 1:
      return TransientInstr::makeFence(N);
    default:
      return TransientInstr::makeStore(
          Operand::imm(Rng() % 256),
          {Operand::imm(0x30 + Rng() % 16)}, N);
    }
  };

  ReorderBuffer A;
  // Grow past several chunk seals, probing some prefixes so chunks reach
  // the fork in a mix of folded and pending states.
  PC Grow = PC(3 * ReorderBuffer::ChunkCap + Rng() % 5);
  for (PC N = 0; N < Grow; ++N) {
    A.push(RandomEntry(N));
    if (Rng() % 4 == 0)
      A.hash();
  }
  ASSERT_EQ(A.hash(), A.hashFromScratch());

  ReorderBuffer B = A;
  ASSERT_TRUE(A.sharesChunks());
  ASSERT_EQ(B.hash(), A.hash());

  for (unsigned Step = 0; Step < 120; ++Step) {
    ReorderBuffer &R = (Rng() % 2) ? A : B;
    switch (Rng() % 5) {
    case 0:
      R.push(RandomEntry(PC(64 + Step)));
      break;
    case 1:
      if (!R.empty())
        R.popFront();
      break;
    case 2:
      if (!R.empty()) {
        // In-place rewrite through the mutation chokepoint — the
        // unshare-on-first-write path when the chunk is shared.  Fences
        // are never rewritten (mirrors Machine.cpp, which only retires
        // them; the fence-index list is maintained at push/pop/truncate).
        BufIdx I = R.minIndex() + Rng() % R.size();
        if (!R.at(I).is(TransientKind::Fence))
          R.mut(I) = TransientInstr::makeJump(PC(Rng() % 64), PC(Step));
      }
      break;
    case 3:
      if (!R.empty())
        R.truncateFrom(R.minIndex() + Rng() % (R.size() + 1));
      break;
    default: {
      const ReorderBuffer &Frozen = R;
      ASSERT_EQ(Frozen.hash(), R.hashFromScratch())
          << "const probe diverged; seed " << Seed << " step " << Step;
      break;
    }
    }
    ASSERT_EQ(A.hash(), A.hashFromScratch())
        << "fork A diverged; seed " << Seed << " step " << Step;
    ASSERT_EQ(B.hash(), B.hashFromScratch())
        << "fork B diverged; seed " << Seed << " step " << Step;
  }
}

// The reorder buffer's side indices (ARCHITECTURE.md invariant 4b) obey
// the same contract as its fingerprint: the control index must equal a
// full scan of the live Branch/JumpI entries, and the chunk-skipping
// lastWriter() must return exactly what the plain reverse scan of Figure
// 3's register resolve finds, for every register at every live index.
// Checked after every step of seeded random walks over random programs
// with loops and indirect jumps, where the walk forks (configuration
// copies that share chunks and then diverge), mispredicts and rolls back,
// retires, and drains the buffer empty.
void expectSideIndicesMatchScan(const Configuration &C, unsigned NumRegs,
                                uint64_t Seed, size_t Step) {
  const ReorderBuffer &B = C.Buf;
  std::vector<BufIdx> Scan;
  B.forEachIn(0, B.nextIndex(), [&](BufIdx I, const TransientInstr &T) {
    if (T.is(TransientKind::Branch) || T.is(TransientKind::JumpI))
      Scan.push_back(I);
  });
  std::vector<BufIdx> Index(B.controls().begin(), B.controls().end());
  ASSERT_EQ(Index, Scan) << "control index diverged; seed " << Seed
                         << " step " << Step;
  if (B.empty())
    return;
  for (BufIdx I = B.minIndex(); I <= B.nextIndex(); ++I)
    for (unsigned Id = 0; Id < NumRegs; ++Id) {
      Reg R(static_cast<uint16_t>(Id));
      const TransientInstr *Oracle = nullptr;
      B.scanReverse(0, I, [&](BufIdx, const TransientInstr &T) {
        if (!T.assignsReg(R))
          return false;
        Oracle = &T;
        return true;
      });
      ASSERT_EQ(B.lastWriter(I, R), Oracle)
          << "last writer of r" << Id << " below " << I
          << " diverged; seed " << Seed << " step " << Step;
    }
}

TEST_P(HashEquivalence, SideIndicesMatchFullScansAcrossForksAndRollbacks) {
  uint64_t Seed = GetParam();
  RandomProgramOptions POpts;
  POpts.WithJumpI = (Seed % 2 == 0);
  POpts.WithLoops = (Seed % 3 != 0);
  Program P = randomProgram(Seed, POpts);
  ASSERT_TRUE(P.validate().empty());
  Machine M(P);
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 3);

  // A small pool of live walks; forks copy one into a random slot.
  std::vector<Configuration> Pool{Configuration::initial(P)};
  std::vector<bool> Draining{false};
  for (size_t Step = 1; Step <= 400; ++Step) {
    size_t W = Rng() % Pool.size();
    if (Rng() % 8 == 0) {
      if (Pool.size() < 4) {
        Pool.push_back(Pool[W]);
        Draining.push_back(false);
      } else {
        size_t To = Rng() % Pool.size();
        Pool[To] = Pool[W];
        Draining[To] = false;
      }
      continue;
    }
    Configuration &C = Pool[W];
    // Now and then a walk stops fetching until its buffer is empty.
    if (C.Buf.empty())
      Draining[W] = false;
    else if (Rng() % 32 == 0)
      Draining[W] = true;
    std::vector<Directive> Choices;
    for (const Directive &D : M.applicableDirectives(C))
      if (!(D.isFetch() && (Draining[W] || C.Buf.size() >= 24)) &&
          D.K != Directive::Kind::ExecuteFwd)
        Choices.push_back(D);
    if (Choices.empty()) {
      Pool[W] = Configuration::initial(P); // Finished or stalled: restart.
      Draining[W] = false;
      continue;
    }
    ASSERT_TRUE(M.step(C, Choices[Rng() % Choices.size()]).has_value());
    for (const Configuration &Live : Pool)
      expectSideIndicesMatchScan(Live, P.numRegs(), Seed, Step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashEquivalence,
                         ::testing::Range<uint64_t>(1, 33));

// The const hash() overload's concurrency contract: a shared (frozen)
// configuration — the explorer holds exactly this shape in checkpoint
// rungs — may be fingerprinted from many threads at once.  The const
// overload performs NO writes at all: pending contributions are
// recomputed on the fly and combined into the running value without
// touching the per-copy fold state or the chunks' shared memo caches
// (those relaxed atomics exist for cross-fork fold/retire/clone races,
// where every writer derives the same bit-identical value from the same
// settled entry).  Run under TSan this is the tripwire for anyone adding
// writes to the const path; it also pins that concurrent reads agree
// with the oracle bit-for-bit.
TEST(HashEquivalenceConcurrent, SharedConfigurationConstHashIsWriteFree) {
  Program P = randomProgram(7);
  Machine M(P);
  Configuration C = Configuration::initial(P);
  RandomRunOptions Ropts;
  Ropts.Seed = 7 * 131 + 17;
  Ropts.MaxSteps = 120;
  RunResult R = runRandom(M, C, Ropts);
  for (const StepRecord &S : R.Trace)
    ASSERT_TRUE(M.step(C, S.D).has_value());
  // Leave pending (never-probed) ROB entries in place: the mutable
  // memoizing overload must NOT be reachable through the const ref.
  const Configuration &Shared = C;
  uint64_t Expect = Shared.hashFromScratch();

  std::vector<std::thread> Pool;
  std::atomic<unsigned> Mismatches{0};
  for (int T = 0; T < 8; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        if (Shared.hash() != Expect)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

// The shared-checkpoint shape under fire: a frozen configuration whose
// sealed ROB chunks are ALSO shared (structurally) with live forks that
// other threads are mutating.  The mutators unshare chunks and fold
// fingerprints on their private copies while const probes of the frozen
// side run full tilt through the same shared memo atomics.  Under TSan
// this pins that the only cross-thread accesses are those relaxed
// atomics; the counters pin that every side stays bit-equal to its
// oracle throughout.
TEST(HashEquivalenceConcurrent, SharedChunksConstHashRacesMutatingForks) {
  Program P = randomProgram(11);
  Machine M(P);
  Configuration C = Configuration::initial(P);
  RandomRunOptions Ropts;
  Ropts.Seed = 11 * 131 + 17;
  Ropts.MaxSteps = 160;
  RunResult R = runRandom(M, C, Ropts);
  for (const StepRecord &S : R.Trace)
    ASSERT_TRUE(M.step(C, S.D).has_value());

  const Configuration &Frozen = C;
  uint64_t Expect = Frozen.hashFromScratch();

  std::vector<std::thread> Pool;
  std::atomic<unsigned> Mismatches{0};
  // Four const probes of the frozen checkpoint...
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        if (Frozen.hash() != Expect)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  // ...racing four forks that each advance (and so unshare and re-fold)
  // a private copy whose chunks start out shared with Frozen.
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      Configuration F = C;
      RandomRunOptions FOpts;
      FOpts.Seed = 1000 + uint64_t(T) * 7919;
      FOpts.MaxSteps = 120;
      RunResult FR = runRandom(M, F, FOpts);
      for (const StepRecord &S : FR.Trace)
        if (!M.step(F, S.D).has_value()) {
          Mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      if (F.hash() != F.hashFromScratch())
        Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

} // namespace
