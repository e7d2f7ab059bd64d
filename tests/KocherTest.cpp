//===- tests/KocherTest.cpp - Kocher v1 suite verdicts ----------------------===//
//
// §4.2: "we are able to use Pitchfork to detect leaks in the well-known
// Kocher test cases" — every adapted case must be flagged (except the
// constant-time select variant), none may violate the *sequential*
// discipline, and the original-style cases must violate both.
//
//===----------------------------------------------------------------------===//

#include "workloads/Kocher.h"

#include "checker/DifferentialChecker.h"
#include "checker/FenceInsertion.h"
#include "checker/SctChecker.h"
#include "checker/SequentialCt.h"
#include "checker/SpsChecker.h"

#include <gtest/gtest.h>

using namespace sct;

namespace {

class KocherSuite : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(KocherSuite, SequentialVerdictMatches) {
  const SuiteCase &C = GetParam();
  SequentialCtReport R = checkSequentialCt(C.Prog);
  EXPECT_EQ(!R.secure(), C.ExpectSeqLeak) << C.Id << ": " << C.Description;
}

TEST_P(KocherSuite, V1V11ModeVerdictMatches) {
  const SuiteCase &C = GetParam();
  SctReport R = checkSct(C.Prog, v1v11Mode());
  EXPECT_EQ(!R.secure(), C.ExpectV1V11Leak)
      << C.Id << ": " << describeResult(C.Prog, R.Exploration);
  EXPECT_FALSE(R.Exploration.Truncated) << C.Id;
}

TEST_P(KocherSuite, V4ModeVerdictMatches) {
  const SuiteCase &C = GetParam();
  SctReport R = checkSct(C.Prog, v4Mode());
  EXPECT_EQ(!R.secure(), C.ExpectV4Leak)
      << C.Id << ": " << describeResult(C.Prog, R.Exploration);
}

TEST_P(KocherSuite, LeakWitnessesReplay) {
  // Every reported leak carries a schedule; replaying it must reproduce
  // the same secret observation — leaks are witnesses, not guesses.
  const SuiteCase &C = GetParam();
  SctReport R = checkSct(C.Prog, v4Mode());
  Machine M(C.Prog);
  for (const LeakRecord &L : R.Exploration.Leaks) {
    RunResult Replay = runSchedule(M, Configuration::initial(C.Prog),
                                   L.Sched);
    ASSERT_FALSE(Replay.Stuck) << C.Id << ": " << Replay.StuckReason;
    ASSERT_FALSE(Replay.Trace.empty());
    EXPECT_TRUE(Replay.Trace.back().Obs.isSecret()) << C.Id;
    EXPECT_EQ(Replay.Trace.back().Obs, L.Obs) << C.Id;
  }
}

TEST_P(KocherSuite, FencesAtBranchTargetsMitigateV1) {
  // §3.6: fencing the branch shadows restores SCT for the v1 cases found
  // in the no-forwarding mode (pure branch-speculation leaks).  Every
  // fenced program is *proved* leak-free by the SPS backend — in seconds,
  // because excursions collapse on the first fence — and the explorer
  // cross-checks the verdict with a complete walk: fetch waits for an
  // in-flight fence, so the fenced trees stay small.
  const SuiteCase &C = GetParam();
  if (C.ExpectSeqLeak || !C.ExpectV1V11Leak)
    return; // Fences cannot fix architectural leaks.
  MitigationResult FR = FenceInsertion(FencePolicy::BranchTargets).run(C.Prog);
  ASSERT_TRUE(FR.ok()) << C.Id;
  Program Fenced = std::move(FR.Prog);
  EXPECT_TRUE(Fenced.validate().empty()) << C.Id;
  SpsReport S = checkSps(Fenced, v1v11Mode());
  ASSERT_TRUE(S.conclusive()) << C.Id << ": " << S.Reason;
  EXPECT_TRUE(S.proved()) << C.Id;
  EXPECT_LT(S.Seconds, 30.0) << C.Id;
  SctReport R = checkSct(Fenced, v1v11Mode());
  EXPECT_FALSE(R.Exploration.Truncated) << C.Id;
  EXPECT_TRUE(R.secure()) << C.Id << ": "
                          << describeResult(Fenced, R.Exploration);
}

TEST_P(KocherSuite, SpsVerdictAgreesWithExplorerV1V11) {
  // The two oracles on the raw corpus: conclusive SPS runs must agree
  // with the explorer's verdict, and every explorer leak origin must
  // reappear among the SPS counterexample origins.
  const SuiteCase &C = GetParam();
  SctReport R = checkSct(C.Prog, v1v11Mode());
  SpsCrossCheck X = crossValidateSps(C.Prog, v1v11Mode(), R.Exploration);
  EXPECT_TRUE(X.agrees())
      << C.Id << ": verdictsAgree=" << X.VerdictsAgree << ", unmatched="
      << X.Unmatched.size() << (X.Skipped ? " (skipped: " + X.SkipReason + ")"
                                          : std::string());
  if (!X.Skipped)
    EXPECT_EQ(!X.Sps.proved(), C.ExpectV1V11Leak) << C.Id;
}

INSTANTIATE_TEST_SUITE_P(
    Adapted, KocherSuite, ::testing::ValuesIn(kocherCases()),
    [](const ::testing::TestParamInfo<SuiteCase> &Info) {
      std::string Name = Info.param.Id;
      for (char &Ch : Name)
        if (Ch == '-' || Ch == '.')
          Ch = '_';
      return Name;
    });

INSTANTIATE_TEST_SUITE_P(
    OriginalStyle, KocherSuite, ::testing::ValuesIn(kocherOriginalCases()),
    [](const ::testing::TestParamInfo<SuiteCase> &Info) {
      std::string Name = Info.param.Id;
      for (char &Ch : Name)
        if (Ch == '-' || Ch == '.')
          Ch = '_';
      return Name;
    });

TEST(KocherSuiteShape, FifteenAdaptedAndFourOriginalCases) {
  EXPECT_EQ(kocherCases().size(), 15u);
  EXPECT_EQ(kocherOriginalCases().size(), 4u);
  for (const SuiteCase &C : kocherCases())
    EXPECT_TRUE(C.Prog.validate().empty()) << C.Id;
  for (const SuiteCase &C : kocherOriginalCases())
    EXPECT_TRUE(C.Prog.validate().empty()) << C.Id;
}

} // namespace
