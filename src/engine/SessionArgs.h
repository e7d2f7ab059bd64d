//===- engine/SessionArgs.h - Declarative session flag table ---*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session flag table: every CLI knob that maps onto SessionOptions
/// lives in one declarative row — name, value placeholder, doc line,
/// setter — so a new flag is one table entry instead of parallel edits in
/// each driver's strcmp chain, and `--help` output is generated from the
/// same rows that parse.  Shared by `sctcheck`, `sctworker`, and the
/// bench mains; drivers with extra flags of their own call
/// parseSessionArgs first and then walk the unconsumed arguments.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_SESSIONARGS_H
#define SCT_ENGINE_SESSIONARGS_H

#include "engine/CheckSession.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace sct {

/// Parses all of \p V as a T into \p Out.  Rejects the empty string,
/// signs on unsigned types, trailing characters, and out-of-range values
/// (std::from_chars reports those instead of wrapping); floating values
/// (durations) must also be finite and non-negative.  The table's
/// numeric rows and drivers' own numeric flags share it.
template <typename T> bool parseNumber(const char *V, T &Out) {
  const char *End = V + std::strlen(V);
  T Tmp{};
  auto [Ptr, Ec] = std::from_chars(V, End, Tmp);
  if (V == End || Ec != std::errc() || Ptr != End)
    return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(Tmp) || Tmp < 0)
      return false;
  Out = Tmp;
  return true;
}

/// One row of the flag table.
struct SessionFlag {
  /// Flag spelling, e.g. "--threads".
  const char *Name;
  /// Placeholder for the value argument in help output ("N", "DIR", ...);
  /// null for boolean flags that take no value.
  const char *Arg;
  /// One-line help text.
  const char *Doc;
  /// Applies the flag: \p Value is the following argv word when `Arg` is
  /// set, null otherwise.  Returns false (leaving \p Opts untouched) when
  /// \p Value is malformed.
  bool (*Apply)(SessionOptions &Opts, const char *Value);
};

/// The table itself, for drivers that want to iterate or extend docs.
std::span<const SessionFlag> sessionFlags();

/// What parseSessionArgs consumed.
struct SessionArgs {
  SessionOptions Opts;
  /// Per-argv-slot consumption map (size Argc; slot 0 — the program name
  /// — is never consumed).  A driver with its own flags walks argv once
  /// more and treats any unconsumed slot as its own.
  std::vector<bool> Consumed;
  /// Empty unless a flag's value was malformed: then one line naming the
  /// first such flag and its value (numeric values must be plain
  /// in-range numbers — no sign, no trailing characters).  Drivers print
  /// it and exit 2.
  std::string Error;
};

/// Parses every table flag out of argv into fresh SessionOptions
/// (thread budget defaulted to the hardware concurrency), marking the
/// consumed slots.  Unknown arguments are left untouched for the driver;
/// malformed values are reported through `SessionArgs::Error`.
SessionArgs parseSessionArgs(int Argc, char **Argv);

/// Help text generated from the table: one aligned "  --flag ARG  doc"
/// row per entry, ready to append to a driver's usage output.
std::string sessionFlagsHelp();

} // namespace sct

#endif // SCT_ENGINE_SESSIONARGS_H
