//===- perfbench/src/Trace.h - Layer spans ----------------------*- C++ -*-===//
//
// The traced run's span recorder.  A span brackets one call from the
// harness into a layer's public function: its name (module-prefixed, as
// the per-layer metrics are), start and end on the steady clock, the span
// that caused it, and the request it serves.  Spans stay in memory and
// are written out once, when the run ends.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now();

struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  /// Index of the causing span in the trace, or -1 for a root.
  int64_t Parent = -1;
  /// Request index within the batch, or -1 for batch-level spans.
  int64_t Request = -1;

  double duration() const { return End - Start; }
};

/// \p Parent's duration minus the part of it covered by \p Children,
/// which may nest, overlap each other (children on parallel threads) or
/// stick out of the parent; covered time is counted once.
double selfTime(const Span &Parent, std::vector<Span> Children);

/// Thread-safe span store.  Span indices are stable, so a span opened on
/// one thread may parent spans opened on others.
class Tracer {
public:
  /// Opens a span starting now; returns its index.
  int64_t begin(std::string Name, int64_t Parent = -1, int64_t Request = -1);
  /// Closes span \p Id now.
  void end(int64_t Id);

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;
  /// Self time of every span (same order as spans()).
  std::vector<double> selfTimes() const;
  /// Writes the spans as one JSON document to \p Path; false on I/O error.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans; // Guarded by Mu.
};

/// Opens a span for the lifetime of the scope; a null tracer records
/// nothing, so untraced and traced code paths can share a body.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, std::string Name, int64_t Parent = -1,
             int64_t Request = -1)
      : T(T), Id(T ? T->begin(std::move(Name), Parent, Request) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t id() const { return Id; }

private:
  Tracer *T;
  int64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
