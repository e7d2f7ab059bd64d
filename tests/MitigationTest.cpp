//===- tests/MitigationTest.cpp - The mitigation engine ---------------------===//
//
// The MitigationSession contracts:
//  - remap-aware hashing is in lockstep with the plain hash (identity
//    remap == no remap);
//  - before/after leak sets are byte-identical with and without
//    seen-state reuse on every Kocher and crypto case — reuse changes
//    step counts, never verdicts;
//  - per-leak closure and the witness-replay pre-pass agree with ground
//    truth (identity transform leaves every leak open and replayable;
//    blanket fences close them);
//  - minimal fence placement restores SCT with strictly fewer fences
//    than the blanket policy on at least half the leaky corpus, and the
//    minimal set verifies secure through a fresh, reuse-free check;
//  - the engine is thread-safe (the TSan job drives this suite at
//    Threads=8).
//
//===----------------------------------------------------------------------===//

#include "engine/MitigationSession.h"

#include "checker/Retpoline.h"
#include "checker/SctChecker.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace sct;

namespace {

/// The identity remap: every point maps to itself.  hash(Identity) must
/// equal hash() — the lockstep invariant the reuse machinery rests on.
struct IdentityRemap final : PcRemap {
  std::optional<PC> target(PC N) const override { return N; }
  std::optional<PC> instr(PC N) const override { return N; }
};

std::multiset<uint64_t> leakKeys(const CheckResult &R) {
  std::multiset<uint64_t> Keys;
  for (const LeakRecord &L : R.Exploration.Leaks)
    Keys.insert(L.key());
  return Keys;
}

MitigationSession makeSession(bool Reuse, unsigned Threads = 1,
                              bool Minimize = true, bool ProveSps = false) {
  SessionOptions SOpts;
  SOpts.Threads = Threads;
  MitigationOptions MOpts;
  MOpts.ReuseSeenStates = Reuse;
  MOpts.MinimizeBaselineWitnesses = Minimize;
  MOpts.ReplayWitnesses = Minimize;
  MOpts.ProveSpsRecheck = ProveSps;
  return MitigationSession(SOpts, MOpts);
}

} // namespace

TEST(RemappedHash, IdentityRemapMatchesPlainHash) {
  // Walk a real speculative execution and compare hashes at every step —
  // buffers full of transients, RSB journal entries included.
  for (const SuiteCase &C : {ssl3C(), meeC(), kocherCases().front()}) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    SctReport R = checkSct(C.Prog, v4Mode());
    IdentityRemap Id;
    Configuration Cfg = Init;
    ASSERT_EQ(Cfg.hash(), Cfg.hash(Id).value()) << C.Id;
    if (R.Exploration.Leaks.empty())
      continue;
    for (const Directive &D : R.Exploration.Leaks.front().Sched) {
      if (!M.step(Cfg, D))
        continue;
      std::optional<uint64_t> H = Cfg.hash(Id);
      ASSERT_TRUE(H.has_value()) << C.Id;
      EXPECT_EQ(Cfg.hash(), *H) << C.Id;
    }
  }
}

TEST(MitigationSession, ReuseNeverChangesVerdicts) {
  // The acceptance bar: before/after leak sets byte-identical with and
  // without seen-state reuse on every Kocher case and every crypto case
  // in both modes.  (Minimization/replay off: they are orthogonal to
  // leak-set identity.)
  MitigationSession With = makeSession(true, 1, /*Minimize=*/false);
  MitigationSession Without = makeSession(false, 1, /*Minimize=*/false);

  struct Case {
    SuiteCase C;
    ExplorerOptions Mode;
    FencePolicy Policy;
  };
  std::vector<Case> Cases;
  for (const SuiteCase &C : kocherCases())
    Cases.push_back({C, v1v11Mode(), FencePolicy::BranchTargets});
  for (const SuiteCase &C : cryptoCases())
    Cases.push_back({C, v1v11Mode(), FencePolicy::BranchTargetsAndStores});
  for (const SuiteCase &C : {meeC(), meeFact(), ssl3C(), ssl3Fact()})
    Cases.push_back({C, v4Mode(), FencePolicy::BranchTargetsAndStores});

  for (const Case &K : Cases) {
    FenceInsertion FI(K.Policy);
    MitigationReport A = With.run(K.C.Prog, K.Mode, FI);
    const MitigationVariant &VA = A.Variants.front();
    ASSERT_TRUE(VA.applied()) << K.C.Id;
    // The without-reuse re-check *is* a plain from-scratch check of the
    // mitigated program; compare against it directly.
    SctReport Fresh = checkSct(VA.Prog, K.Mode);
    std::multiset<uint64_t> FreshKeys;
    for (const LeakRecord &L : Fresh.Exploration.Leaks)
      FreshKeys.insert(L.key());
    EXPECT_EQ(leakKeys(VA.After), FreshKeys)
        << K.C.Id << ": reuse changed the mitigated leak set";
    // And the baseline must match the plain checker too (the export is
    // metadata, never behaviour).
    SctReport FreshBase = checkSct(K.C.Prog, K.Mode);
    std::multiset<uint64_t> BaseKeys;
    for (const LeakRecord &L : FreshBase.Exploration.Leaks)
      BaseKeys.insert(L.key());
    EXPECT_EQ(leakKeys(A.Baseline), BaseKeys) << K.C.Id;
    // Spot-check the Without session end-to-end on a couple of cases
    // (it skips the whole reuse machinery, so a full sweep would only
    // re-time the explorer).
    if (&K == &Cases.front() || &K == &Cases.back()) {
      MitigationReport B = Without.run(K.C.Prog, K.Mode, FI);
      const MitigationVariant &VB = B.Variants.front();
      EXPECT_EQ(leakKeys(VA.After), leakKeys(VB.After)) << K.C.Id;
      EXPECT_EQ(VB.ReusePrunedNodes, 0u);
      ASSERT_EQ(VA.Leaks.size(), VB.Leaks.size()) << K.C.Id;
      for (size_t I = 0; I < VA.Leaks.size(); ++I)
        EXPECT_EQ(VA.Leaks[I].Closed, VB.Leaks[I].Closed) << K.C.Id;
    }
  }
}

TEST(MitigationSession, IdentityTransformLeavesLeaksOpenAndReplayable) {
  // A zero-site fence "mitigation" is the identity: every baseline leak
  // must be reported open, the witness-replay pre-pass must prove it
  // (the witness replays verbatim), and — since the programs are the
  // same — seen-state reuse must prune the re-check's leak-free subtrees
  // without losing a single leak.
  MitigationSession MS = makeSession(true);
  unsigned SawReusePruning = 0;
  for (const SuiteCase &C : kocherCases()) {
    FenceInsertion Identity(std::vector<PC>{});
    MitigationReport Rep = MS.run(C.Prog, v1v11Mode(), Identity);
    if (Rep.Baseline.secure())
      continue;
    const MitigationVariant &V = Rep.Variants.front();
    ASSERT_TRUE(V.applied()) << C.Id;
    EXPECT_EQ(leakKeys(V.After), leakKeys(Rep.Baseline)) << C.Id;
    for (const LeakClosure &L : V.Leaks) {
      EXPECT_FALSE(L.Closed) << C.Id;
      EXPECT_TRUE(L.ReplayPredictsOpen) << C.Id;
      ASSERT_TRUE(L.MitigatedOrigin.has_value()) << C.Id;
      EXPECT_EQ(*L.MitigatedOrigin, L.Origin) << C.Id;
    }
    SawReusePruning += V.ReusePrunedNodes > 0;
  }
  // Reuse must actually engage somewhere (the identity diff is the
  // maximal-overlap case).
  EXPECT_GT(SawReusePruning, 0u);
}

TEST(MitigationSession, BlanketFencesCloseKocherLeaks) {
  // The SPS re-check proves fenced variants leak-free without walking
  // their schedule trees.
  MitigationSession MS = makeSession(true, 1, true, /*ProveSps=*/true);
  unsigned Checked = 0;
  for (const SuiteCase &C : kocherCases()) {
    if (C.ExpectSeqLeak || !C.ExpectV1V11Leak)
      continue; // Fences cannot fix architectural leaks.
    if (++Checked > 6)
      break; // Closure semantics, not a corpus sweep (the bench does that).
    MitigationReport Rep =
        MS.run(C.Prog, v1v11Mode(), FenceInsertion(FencePolicy::BranchTargets));
    const MitigationVariant &V = Rep.Variants.front();
    ASSERT_TRUE(V.applied()) << C.Id;
    EXPECT_TRUE(V.restoredSct()) << C.Id;
    EXPECT_EQ(V.closedCount(), V.Leaks.size()) << C.Id;
    for (const LeakClosure &L : V.Leaks)
      EXPECT_FALSE(L.ReplayPredictsOpen) << C.Id;
    // Cost is reported: fences were added, the sequential schedule grew.
    EXPECT_GT(V.Cost.FencesAdded, 0u) << C.Id;
    EXPECT_GE(V.SeqSteps, Rep.SeqStepsBaseline) << C.Id;
    // The re-check really was settled by the proof, not by a walk.
    ASSERT_TRUE(V.After.Sps.has_value()) << C.Id;
    EXPECT_TRUE(V.After.Sps->proved()) << C.Id;
  }
}

TEST(MitigationSession, FenceOnlyTransformsReusePastConsumedFences) {
  // Blanket fencing is the worst case for the strict (isomorphism)
  // reuse contract: the epilogue fence sits right before the old end
  // point, so the influence fixpoint marks *every* old point influenced
  // and the remap refuses every image — the re-check used to run with
  // ReusePrunedNodes == 0 on this exact corpus.  The fence-only tier
  // (engine/MitigationSession.cpp's MitigationRemap) restores reuse for
  // the shared pre-fence region: inserted fences only remove speculative
  // behaviour, so a matched baseline certificate still transfers.  Pin
  // that the prunes actually happen now, and that they change step
  // counts, never verdicts (ReuseNeverChangesVerdicts sweeps the leak
  // sets; this asserts the closure verdicts directly).
  MitigationSession MS = makeSession(true, 1, /*Minimize=*/false);
  unsigned Checked = 0, CasesPruning = 0;
  uint64_t TotalPruned = 0;
  for (const SuiteCase &C : kocherCases()) {
    if (C.ExpectSeqLeak || !C.ExpectV1V11Leak)
      continue;
    if (++Checked > 6)
      break;
    MitigationReport Rep =
        MS.run(C.Prog, v1v11Mode(), FenceInsertion(FencePolicy::BranchTargets));
    const MitigationVariant &V = Rep.Variants.front();
    ASSERT_TRUE(V.applied()) << C.Id;
    EXPECT_TRUE(V.restoredSct()) << C.Id;
    TotalPruned += V.ReusePrunedNodes;
    CasesPruning += V.ReusePrunedNodes > 0;
  }
  EXPECT_EQ(Checked, 7u); // Six cases examined (loop broke on the 7th).
  EXPECT_GT(TotalPruned, 0u)
      << "fence-only relaxation regressed: blanket fencing prunes nothing";
  EXPECT_GE(CasesPruning, 3u);
}

TEST(MitigationSession, SpsRecheckAgreesWithReuseCertificateSweep) {
  // The reuse-certificate machinery and the SPS proof backend are
  // independent verifiers of the same mitigated programs: one diff-driven
  // re-exploration with seen-state pruning, one tape-tree proof.  Sweep
  // the fence-fixable corpus through both and assert every verdict —
  // restored-SCT and each per-leak closure flag — agrees.
  MitigationSession Sps = makeSession(true, 1, true, /*ProveSps=*/true);
  MitigationSession Explored = makeSession(true);
  unsigned Compared = 0;
  for (const SuiteCase &C : kocherCases()) {
    if (C.ExpectSeqLeak || !C.ExpectV1V11Leak)
      continue;
    FenceInsertion FI(FencePolicy::BranchTargets);
    MitigationReport A = Sps.run(C.Prog, v1v11Mode(), FI);
    MitigationReport B = Explored.run(C.Prog, v1v11Mode(), FI);
    const MitigationVariant &VA = A.Variants.front();
    const MitigationVariant &VB = B.Variants.front();
    ASSERT_TRUE(VA.applied() && VB.applied()) << C.Id;
    // The SPS path must actually have settled the re-check — otherwise
    // this compares the explorer against itself.
    ASSERT_TRUE(VA.After.Sps && VA.After.Sps->conclusive()) << C.Id;
    EXPECT_EQ(VA.restoredSct(), VB.restoredSct()) << C.Id;
    ASSERT_EQ(VA.Leaks.size(), VB.Leaks.size()) << C.Id;
    for (size_t I = 0; I < VA.Leaks.size(); ++I) {
      EXPECT_EQ(VA.Leaks[I].Closed, VB.Leaks[I].Closed)
          << C.Id << " leak " << I << " at origin " << VA.Leaks[I].Origin;
      EXPECT_EQ(VA.Leaks[I].BaselineKey, VB.Leaks[I].BaselineKey) << C.Id;
    }
    ++Compared;
  }
  EXPECT_GE(Compared, 5u);
}

TEST(MitigationSession, MinimalFencePlacementBeatsBlanket) {
  // The acceptance bar: strictly fewer fences than the blanket on at
  // least half the leaky corpus, while still restoring SCT — verified
  // through a fresh reuse-free check so the search cannot grade its own
  // homework.
  MitigationSession MS = makeSession(true);
  unsigned Leaky = 0, StrictlyFewer = 0;
  for (const SuiteCase &C : kocherCases()) {
    if (C.ExpectSeqLeak || !C.ExpectV1V11Leak)
      continue;
    FencePlacementOptions FOpts;
    FOpts.Blanket = FencePolicy::BranchTargets;
    // SPS-verified candidates: a conclusive proof (or first
    // counterexample) replaces each candidate's re-exploration.
    FOpts.ProveSps = true;
    FencePlacementResult R =
        MS.minimizeFencePlacement(C.Prog, v1v11Mode(), FOpts);
    ASSERT_FALSE(R.Baseline.secure()) << C.Id;
    ASSERT_TRUE(R.RestoredSct) << C.Id;
    ++Leaky;
    EXPECT_LE(R.Sites.size(), R.BlanketSites) << C.Id;
    StrictlyFewer += R.Sites.size() < R.BlanketSites;

    // Independent verification: rebuild the fenced program and walk it
    // from scratch, no reuse and no proof anywhere.
    MitigationResult MR = FenceInsertion(R.Sites).run(C.Prog);
    ASSERT_TRUE(MR.ok()) << C.Id;
    SctReport Fresh = checkSct(MR.Prog, v1v11Mode());
    EXPECT_FALSE(Fresh.Exploration.Truncated) << C.Id;
    EXPECT_TRUE(Fresh.secure()) << C.Id << " minimal set " << R.Sites.size();
  }
  ASSERT_GT(Leaky, 0u);
  EXPECT_GE(StrictlyFewer * 2, Leaky)
      << "minimal placement beat the blanket on only " << StrictlyFewer
      << " of " << Leaky << " leaky cases";
}

TEST(MitigationSession, RetpolineClosesV2ThroughTheEngine) {
  // The Figure 11/13 story through the uniform interface: blanket fences
  // have no applicable site on the v2 gadget (no conditional branch, no
  // store) and cannot help; the retpoline — with the register-held code
  // pointer declared so relocation stays sound — closes the leak.  The
  // engine relocates the attacker's mistraining targets through the
  // provenance map for the re-check.
  FigureCase V2 = figure11();
  MitigationSession MS = makeSession(true);
  MitigationReport FenceRep =
      MS.run(V2.Prog, V2.CheckOpts,
             FenceInsertion(FencePolicy::BranchTargetsAndStores));
  ASSERT_FALSE(FenceRep.Baseline.secure());
  const MitigationVariant &FV = FenceRep.Variants.front();
  ASSERT_TRUE(FV.applied());
  EXPECT_EQ(FV.Cost.Sites, 0u); // Nothing for the blanket to fence.
  EXPECT_FALSE(FV.restoredSct());

  Retpoline Retp({}, {*V2.Prog.regByName("rb")});
  MitigationReport RetpRep = MS.run(V2.Prog, V2.CheckOpts, Retp);
  const MitigationVariant &RV = RetpRep.Variants.front();
  ASSERT_TRUE(RV.applied());
  EXPECT_GT(RV.Cost.InstructionsAdded, 0u);
  EXPECT_TRUE(RV.restoredSct());
  EXPECT_EQ(RV.closedCount(), RV.Leaks.size());
}

TEST(MitigationSession, ThreadedRunsMatchSequential) {
  // The TSan matrix drives this suite at Threads=8: the engine's
  // exploration, reuse filter, and minimization phases share workers.
  MitigationSession Seq = makeSession(true, 1);
  MitigationSession Par = makeSession(true, 8);
  for (const SuiteCase &C : {kocherCases().front(), ssl3C()}) {
    ExplorerOptions Mode = C.Id == "ssl3-c" ? v4Mode() : v1v11Mode();
    FenceInsertion FI(FencePolicy::BranchTargets);
    MitigationReport A = Seq.run(C.Prog, Mode, FI);
    MitigationReport B = Par.run(C.Prog, Mode, FI);
    EXPECT_EQ(leakKeys(A.Baseline), leakKeys(B.Baseline)) << C.Id;
    EXPECT_EQ(leakKeys(A.Variants.front().After),
              leakKeys(B.Variants.front().After))
        << C.Id;
    EXPECT_EQ(A.Variants.front().restoredSct(),
              B.Variants.front().restoredSct())
        << C.Id;
  }
}
