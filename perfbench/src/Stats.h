//===- perfbench/src/Stats.h - Sample summaries -----------------*- C++ -*-===//
//
// Median and quartiles of a sample, computed exactly as Python's
// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
// the spread the harness prints is the spread a reader recomputes from
// the printed samples.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <vector>

namespace perfbench {

struct Summary {
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
  size_t N = 0;

  /// Interquartile range as a share of the median (0 when the median is).
  double relativeSpread() const { return Median ? (Q3 - Q1) / Median : 0; }
};

/// Quartile \p I (1, 2 or 3) of sorted \p V, Python's exclusive method;
/// a single sample is its own quartile.
inline double quartile(const std::vector<double> &V, unsigned I) {
  const size_t L = V.size();
  if (L == 1)
    return V[0];
  const size_t M = L + 1;
  size_t J = I * M / 4;
  J = std::clamp<size_t>(J, 1, L - 1);
  const double Delta = double(I * M) - double(J * 4);
  return (V[J - 1] * (4 - Delta) + V[J] * Delta) / 4;
}

/// Summary of \p Samples; all zero when empty.
inline Summary summarize(std::vector<double> Samples) {
  Summary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Q1 = quartile(Samples, 1);
  S.Q3 = quartile(Samples, 3);
  // The median is the middle sample (mean of the middle two), which is
  // what quartile 2 gives for every size but is cheaper to state.
  const size_t L = Samples.size();
  S.Median = L % 2 ? Samples[L / 2] : (Samples[L / 2 - 1] + Samples[L / 2]) / 2;
  return S;
}

inline double median(std::vector<double> Samples) {
  return summarize(std::move(Samples)).Median;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
