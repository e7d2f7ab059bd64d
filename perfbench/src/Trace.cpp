//===- perfbench/src/Trace.cpp - Layer spans ------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double selfTime(const Span &Parent, std::vector<Span> Children) {
  // Clip each child to the parent, then sweep the sorted intervals and
  // sum their union.
  for (Span &C : Children) {
    C.Start = std::max(C.Start, Parent.Start);
    C.End = std::min(C.End, Parent.End);
  }
  std::sort(Children.begin(), Children.end(),
            [](const Span &A, const Span &B) { return A.Start < B.Start; });
  double Covered = 0;
  double RunStart = 0, RunEnd = 0;
  bool InRun = false;
  for (const Span &C : Children) {
    if (C.End <= C.Start)
      continue;
    if (InRun && C.Start <= RunEnd) {
      RunEnd = std::max(RunEnd, C.End);
      continue;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    RunStart = C.Start;
    RunEnd = C.End;
    InRun = true;
  }
  if (InRun)
    Covered += RunEnd - RunStart;
  return Parent.duration() - Covered;
}

int64_t Tracer::begin(std::string Name, int64_t Parent, int64_t Request) {
  double T = now();
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back({std::move(Name), T, T, Parent, Request});
  return static_cast<int64_t>(Spans.size() - 1);
}

void Tracer::end(int64_t Id) {
  double T = now();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<size_t>(Id)].End = T;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans;
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<Span> All = spans();
  std::vector<std::vector<Span>> Children(All.size());
  for (const Span &S : All)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back(S);
  std::vector<double> Self(All.size());
  for (size_t I = 0; I < All.size(); ++I)
    Self[I] = selfTime(All[I], std::move(Children[I]));
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::vector<double> Self = selfTimes();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = All.empty() ? 0 : All.front().Start;
  std::fprintf(F, "{\"spans\": [\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %lld, "
                 "\"request\": %lld}%s\n",
                 I, S.Name.c_str(), S.Start - Origin, S.End - Origin, Self[I],
                 static_cast<long long>(S.Parent),
                 static_cast<long long>(S.Request),
                 I + 1 < All.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
