//===- perfbench/src/Report.cpp - Run results -----------------------------===//

#include "Report.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

bool validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '.' && C != '-')
      return false;
  return true;
}

void RunReport::check(bool Ok, const std::string &Note) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailureNotes.size() < 20)
    FailureNotes.push_back(Note);
}

void RunReport::add(std::string Name, double Value, std::string Unit) {
  if (!validMetricName(Name)) {
    std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                 Name.c_str());
    std::abort();
  }
  Metrics.push_back({std::move(Name), Value, std::move(Unit)});
}

std::string resultJson(const RunReport &R) {
  std::string S = "{\"correct\": ";
  S += R.correct() ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(R.Attempted) +
       ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", R.Metrics[I].Value);
    S += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  return S + "}}";
}

} // namespace perfbench
