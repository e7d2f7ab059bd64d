//===- perfbench/src/Corpus.h - Benchmark inputs ----------------*- C++ -*-===//
//
// The inputs of every workload, built from the library's public workload
// models plus a seeded random-program generator that belongs to the
// benchmark alone (a test edit must never change what the benchmark
// measures, so nothing here includes tests/).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include "checker/FenceInsertion.h"
#include "engine/CheckSession.h"
#include "workloads/SuiteCase.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Text of one random loop-free program in the `.sct` assembly syntax
/// `sctcheck` reads: 10 to 18 instructions over four registers, with
/// public, secret and table regions.  Branches only jump forward and at
/// most three are emitted, so every schedule terminates and no request is
/// long: with loops one request ran for up to 17.5 s, and a fifth branch
/// grew the slowest request of a corpus from ~0.1 s to ~2 s.  A fourth
/// branch tripled a program's mean check cost (2.5 to 7.7 ms at one
/// thread on a 4-core Xeon host, SPS and minimization on) and its
/// coefficient of variation went from 1.2 to 1.9, so a few programs would
/// decide each batch's time.
std::string randomProgramText(uint64_t Seed);

/// The generator seeds of \p N random programs: draw 0 is corpus \p Seed
/// itself, and each later \p Draw a fresh set from the same seed (one
/// per audit batch, or one edit pass's replacements).
std::vector<uint64_t> randomProgramSeeds(uint64_t Seed, size_t N,
                                         unsigned Draw = 0);

/// One request plus its known answer, when it has one.
struct CorpusRequest {
  sct::CheckRequest Req;
  /// Expected "a leak exists" verdict; nullopt for random programs, whose
  /// answer is the explorer's and SPS's agreement instead.
  std::optional<bool> ExpectLeak;
};

/// The paper's Table 2 batch: the eight crypto models, each in v1v11 and
/// v4 mode, with the Table 2 matrix as the expected verdicts, under a
/// total step budget of 1,048,576 (mee-c v1v11 is truncated at it).
std::vector<CorpusRequest> table2Requests();

/// The audit corpus: the Kocher (speculative, without kocher-05, and
/// original), v1.1 and v4 suites in both modes, every figure under its own
/// checker options, and \p Random (the parsed random programs) in both
/// modes.  Random requests come last, starting at `FirstRandom`.
struct AuditCorpus {
  std::vector<CorpusRequest> Requests;
  size_t FirstRandom = 0;
};
AuditCorpus auditCorpus(const std::vector<sct::Program> &Random);

/// Appends \p P's v1v11-mode and v4-mode requests, with their known
/// answers when given.
void addModeRequests(std::vector<CorpusRequest> &Out, const std::string &Id,
                     const sct::Program &P,
                     std::optional<bool> V1V11Leak = std::nullopt,
                     std::optional<bool> V4Leak = std::nullopt);

/// Parses one random program; aborts on a parse error (the generator
/// only emits valid text, so an error is a harness or parser bug).
sct::Program parseRandomProgram(const std::string &Text);

/// One minimal-fence-placement case and its known outcome.
struct MitigateCase {
  sct::SuiteCase Case;
  sct::FencePolicy Policy;
  sct::ExplorerOptions Mode;
  /// The baseline is expected to leak (from the suite's expectations).
  bool ExpectLeak = false;
  /// For leaky cases: the blanket fence variant's closed leak count out
  /// of its baseline leaks, and whether placement restores SCT.
  size_t ExpectClosed = 0;
  size_t ExpectLeaks = 0;
  bool ExpectRestored = false;
};

/// The mitigation corpus: the Kocher and v1.1 suites fenced at branch
/// targets in v1v11 mode, the v4 suite fenced after stores in v4 mode,
/// and the crypto models fenced at both in v4 mode; kocher-05 is left
/// out, as its checks alone would be the batch.
std::vector<MitigateCase> mitigateCases();

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
