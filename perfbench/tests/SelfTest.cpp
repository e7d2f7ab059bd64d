//===- perfbench/tests/SelfTest.cpp - Harness self-tests ------------------===//
//
// Checks the harness's own arithmetic and inputs: the quartile helper
// against Python's statistics.quantiles, span self time, metric-name
// validity, corpus reproducibility, and the reference kernel.  Exits
// non-zero on any failure.
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "Corpus.h"
#include "Report.h"
#include "Stats.h"
#include "Trace.h"

#include "engine/Serialization.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testQuartiles() {
  // Reference values from Python's statistics.quantiles(v, n=4) and
  // statistics.median(v).
  struct Case {
    std::vector<double> V;
    double Q1, Median, Q3;
  } Cases[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{1, 2, 3}, 1.0, 2.0, 3.0},
      {{3, 1, 4, 1, 5}, 1.0, 3.0, 4.5},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{2.5, 0.5, 9, 4}, 1.0, 3.25, 7.75},
  };
  for (const Case &C : Cases) {
    Summary S = summarize(C.V);
    expect(near(S.Q1, C.Q1), "first quartile matches Python");
    expect(near(S.Median, C.Median), "median matches Python");
    expect(near(S.Q3, C.Q3), "third quartile matches Python");
    expect(S.N == C.V.size(), "sample count");
  }
  Summary One = summarize({4.0});
  expect(One.Median == 4 && One.Q1 == 4 && One.Q3 == 4,
         "a single sample is its own median and quartiles");
  expect(summarize({}).N == 0, "an empty sample summarizes to zeros");
  expect(near(summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).relativeSpread(),
              5.5 / 5.5),
         "relative spread is IQR over median");
}

Span span(double Start, double End) { return {"s", Start, End, -1, -1}; }

void testSelfTime() {
  Span P = span(0, 10);
  expect(near(selfTime(P, {}), 10), "no children: self time is duration");
  expect(near(selfTime(P, {span(1, 3), span(5, 6)}), 7),
         "disjoint children are subtracted");
  expect(near(selfTime(P, {span(1, 5), span(3, 7)}), 4),
         "overlapping children count once");
  expect(near(selfTime(P, {span(1, 8), span(2, 3), span(4, 5)}), 3),
         "children nested in a child count once");
  expect(near(selfTime(P, {span(-2, 2), span(9, 12)}), 7),
         "children sticking out are clipped to the parent");
  expect(near(selfTime(P, {span(0, 10), span(2, 4)}), 0),
         "a child covering the parent leaves no self time");

  Tracer T;
  int64_t Root = T.begin("root");
  int64_t Child = T.begin("child", Root);
  T.begin("grandchild", Child);
  std::vector<Span> All = T.spans();
  expect(All.size() == 3 && All[1].Parent == Root && All[2].Parent == Child,
         "tracer records parents");
}

void testMetricNames() {
  expect(validMetricName("batch_s"), "plain name");
  expect(validMetricName("core.steps_per_cpu_s"), "dotted name");
  expect(validMetricName("9lives-x.y_z"), "leading digit, dash");
  expect(!validMetricName(""), "empty name");
  expect(!validMetricName("_x"), "leading underscore");
  expect(!validMetricName(".x"), "leading dot");
  expect(!validMetricName("a b"), "space");
  expect(!validMetricName("a/b"), "slash");
  expect(!validMetricName(std::string(65, 'a')), "65 characters");
  expect(validMetricName(std::string(64, 'a')), "64 characters");
}

std::vector<uint64_t> corpusHashes(uint64_t Seed) {
  std::vector<uint64_t> H;
  for (uint64_t S : randomProgramSeeds(Seed, 50))
    H.push_back(sct::programHash(parseRandomProgram(randomProgramText(S))));
  return H;
}

void testCorpusReproducible() {
  expect(corpusHashes(7) == corpusHashes(7), "same seed, same programs");
  expect(corpusHashes(7) != corpusHashes(8), "other seed, other programs");
  expect(randomProgramSeeds(7, 10, 1) != randomProgramSeeds(7, 10, 2),
         "each draw gives fresh programs");
  AuditCorpus A = auditCorpus({parseRandomProgram(randomProgramText(1))});
  expect(A.Requests.size() == A.FirstRandom + 2,
         "a random program is checked in both modes");
}

void testReferenceKernel() {
  double A = runReferenceKernel(), B = runReferenceKernel();
  expect(A > 0 && B > 0, "the reference kernel takes time");
  // Identical work: on any host the two runs are within 4x of each other.
  expect(A < 4 * B && B < 4 * A, "the reference kernel repeats");
}

} // namespace

int main() {
  testQuartiles();
  testSelfTime();
  testMetricNames();
  testCorpusReproducible();
  testReferenceKernel();
  if (Failures)
    std::fprintf(stderr, "%d self-test check(s) failed\n", Failures);
  else
    std::printf("all self-tests passed\n");
  return Failures ? 1 : 0;
}
