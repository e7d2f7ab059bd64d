//===- perfbench/src/Report.h - Run results ---------------------*- C++ -*-===//
//
// One run's outcome: how many requests were attempted and failed their
// correctness check, and the named metrics, printed as the single JSON
// line every run ends with.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name: a letter or digit, then letters, digits, `_`, `.` and
/// `-`, at most 64 in all.
bool validMetricName(std::string_view Name);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failures, for the log.
  std::vector<std::string> FailureNotes;
  std::vector<Metric> Metrics;

  bool correct() const { return Attempted > 0 && Failed == 0; }
  /// Counts one checked outcome; \p Note explains a failure.
  void check(bool Ok, const std::string &Note);
  void add(std::string Name, double Value, std::string Unit);
};

/// The run's result line: `{"correct", "attempted", "failed", "metrics"}`.
std::string resultJson(const RunReport &R);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
