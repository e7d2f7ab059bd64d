//===- perfbench/src/Corpus.cpp - Benchmark inputs ------------------------===//

#include "Corpus.h"

#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <cstdio>
#include <cstdlib>
#include <random>

using namespace sct;

namespace perfbench {

namespace {

/// Table 2's total step budget (the library default is 8,388,608).  The
/// batch's long request, mee-c v1v11, runs to whatever budget it is given
/// and still finds its leak; at one thread the default budget alone takes
/// 4-8 s on a shared 4-core Xeon host, so a run would hold only a few
/// batches and its median would be one slow or fast batch.  At 1,048,576
/// the whole batch takes ~1 s and every other request still completes.
constexpr uint64_t Table2StepBudget = 1ull << 20;

/// Left out of the audit and mitigation corpora, where it would be most
/// of each batch: at one thread kocher-05's v1v11 check with SPS and
/// minimization takes 0.75 s, 40% of an audit batch, and its mitigation
/// ~100 s (16 s for the run with its blanket re-check, 85 s of placement
/// checks, each budget-truncated).
constexpr const char *LongCase = "kocher-05";

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

std::string randomProgramText(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](uint64_t N) { return Rng() % N; };
  static const char *const Regs[] = {"r0", "r1", "r2", "r3"};
  static const char *const Arith[] = {"add", "sub", "mul", "and", "or",
                                      "xor", "shl", "shr", "ult", "eq"};
  static const char *const Conds[] = {"eq", "ne", "ult", "ule", "ugt"};
  auto Reg = [&] { return std::string(Regs[Pick(4)]); };
  auto Operand = [&] {
    return Pick(2) ? Reg() : std::to_string(Pick(16));
  };
  // Base in the pub/sec data range plus a small offset, so most accesses
  // land in a labelled region.
  auto Addr = [&] {
    std::string A = "[" + std::to_string(0x40 + Pick(14));
    if (Pick(2))
      A += ", " + (Pick(2) ? Reg() : std::to_string(Pick(3)));
    return A + "]";
  };

  std::string S = "; perfbench random program, seed " + std::to_string(Seed) +
                  "\n.reg r0 r1 r2 r3\n";
  for (const char *R : Regs)
    S += ".init " + std::string(R) + " " + std::to_string(Pick(16)) + "\n";
  S += ".init rsp 0x3F\n"
       ".region stack 0x30 16 public\n"
       ".region pub 0x40 8 public\n"
       ".region sec 0x48 8 secret\n"
       ".region table 0x60 32 public\n";
  auto Data = [&](unsigned Base, unsigned Words) {
    S += ".data " + std::to_string(Base);
    for (unsigned I = 0; I < Words; ++I)
      S += " " + std::to_string(Pick(8));
    S += "\n";
  };
  Data(0x40, 16);
  Data(0x60, 32);
  S += ".entry i0\n";

  const unsigned Length = 10 + static_cast<unsigned>(Pick(9));
  const bool EmitCall = Pick(3) == 0;
  unsigned Branches = 0;
  auto Label = [](unsigned N) { return "i" + std::to_string(N); };
  for (unsigned N = 0; N < Length; ++N) {
    S += Label(N) + ":\n";
    unsigned Kind = static_cast<unsigned>(Pick(12));
    if ((Kind == 7 || Kind >= 10) && Branches == 3)
      Kind = 9; // Branch budget spent: a move instead.
    switch (Kind) {
    case 0:
    case 1:
    case 2:
      S += "  " + Reg() + " = " + Arith[Pick(std::size(Arith))] + " " +
           Operand() + ", " + Operand() + "\n";
      break;
    case 3:
    case 4:
      S += "  " + Reg() + " = load " + Addr() + "\n";
      break;
    case 5:
    case 6:
      S += "  store " + Operand() + ", " + Addr() + "\n";
      break;
    case 7: {
      // Forward-only: both targets strictly later.
      unsigned T = std::min<unsigned>(N + 1 + Pick(3), Length);
      unsigned F = std::min<unsigned>(N + 1 + Pick(3), Length);
      S += "  br " + std::string(Conds[Pick(std::size(Conds))]) + " " +
           Operand() + ", " + Operand() + " -> " + Label(T) + ", " +
           Label(F) + "\n";
      ++Branches;
      break;
    }
    case 8:
      S += "  fence\n";
      break;
    case 10:
    case 11: {
      // Spectre-v1 gadget: a bounds check guarding pub[idx], then a
      // dependent table load whose address carries what the first load
      // read — out of bounds, a secret.
      std::string Idx = Reg(), Val = Reg();
      std::string In = "g" + std::to_string(N);
      S += "  br ult " + Idx + ", 8 -> " + In + ", " + Label(N + 1) + "\n" +
           In + ":\n  " + Val + " = load [0x40, " + Idx + "]\n  " + Reg() +
           " = load [0x60, " + Val + "]\n";
      ++Branches;
      break;
    }
    default:
      S += "  " + Reg() + " = mov " + std::to_string(Pick(32)) + "\n";
      break;
    }
  }
  S += Label(Length) + ":\n";
  if (EmitCall) {
    S += "  call leaf\n  jmp end\nleaf:\n  " + Reg() + " = add " + Operand() +
         ", " + Operand() + "\n  ret\nend:\n";
  }
  S += "  r0 = mov 0\n";
  return S;
}

std::vector<uint64_t> randomProgramSeeds(uint64_t Seed, size_t N,
                                         unsigned Draw) {
  std::vector<uint64_t> Seeds(N);
  uint64_t State = splitmix64(Seed ^ (uint64_t(Draw) << 48));
  for (uint64_t &S : Seeds) {
    State = splitmix64(State);
    S = State;
  }
  return Seeds;
}

Program parseRandomProgram(const std::string &Text) {
  ParseResult R = parseAsm(Text);
  if (!R.ok()) {
    std::fprintf(stderr, "perfbench: generated program does not parse:\n%s\n%s",
                 R.errorText().c_str(), Text.c_str());
    std::abort();
  }
  return std::move(*R.Prog);
}

void addModeRequests(std::vector<CorpusRequest> &Out, const std::string &Id,
                     const Program &P, std::optional<bool> V1V11Leak,
                     std::optional<bool> V4Leak) {
  for (bool V4 : {false, true}) {
    CorpusRequest R;
    R.Req.Id = Id + (V4 ? "/v4" : "/v1v11");
    R.Req.Prog = P;
    R.Req.Opts = V4 ? v4Mode() : v1v11Mode();
    R.ExpectLeak = V4 ? V4Leak : V1V11Leak;
    Out.push_back(std::move(R));
  }
}

std::vector<CorpusRequest> table2Requests() {
  std::vector<CorpusRequest> Out;
  for (const SuiteCase &C : cryptoCases())
    addModeRequests(Out, C.Id, C.Prog, C.ExpectV1V11Leak, C.ExpectV4Leak);
  for (CorpusRequest &R : Out)
    R.Req.Opts.MaxTotalSteps = Table2StepBudget;
  return Out;
}

AuditCorpus auditCorpus(const std::vector<Program> &Random) {
  AuditCorpus A;
  for (auto Suite : {kocherCases, kocherOriginalCases, spectreV11Cases,
                     spectreV4Cases})
    for (const SuiteCase &C : Suite())
      if (C.Id != LongCase)
        addModeRequests(A.Requests, C.Id, C.Prog, C.ExpectV1V11Leak,
                        C.ExpectV4Leak);
  // Figures carry the checker options their expectation holds under
  // (indirect-jump targets, RSB underflow targets, ...), so each is
  // checked once, in its own mode.
  for (const FigureCase &F : allFigures()) {
    CorpusRequest R;
    R.Req.Id = F.Name;
    R.Req.Prog = F.Prog;
    R.Req.Opts = F.CheckOpts;
    R.ExpectLeak = F.ExpectLeak;
    A.Requests.push_back(std::move(R));
  }
  A.FirstRandom = A.Requests.size();
  for (size_t I = 0; I < Random.size(); ++I)
    addModeRequests(A.Requests, "random-" + std::to_string(I), Random[I]);
  return A;
}

std::vector<MitigateCase> mitigateCases() {
  struct Group {
    std::vector<SuiteCase> Cases;
    FencePolicy Policy;
    bool V4;
  };
  Group Groups[] = {
      {kocherCases(), FencePolicy::BranchTargets, false},
      {spectreV11Cases(), FencePolicy::BranchTargets, false},
      {spectreV4Cases(), FencePolicy::AfterStores, true},
      {cryptoCases(), FencePolicy::BranchTargetsAndStores, true},
  };
  std::vector<MitigateCase> Out;
  for (Group &G : Groups)
    for (SuiteCase &C : G.Cases) {
      if (C.Id == LongCase)
        continue;
      MitigateCase M;
      M.ExpectLeak = G.V4 ? C.ExpectV4Leak : C.ExpectV1V11Leak;
      M.Policy = G.Policy;
      M.Mode = G.V4 ? v4Mode() : v1v11Mode();
      if (M.ExpectLeak) {
        // Every leaky case has one baseline leak, and fencing closes it —
        // except mee-fact's Figure 10 ret-forwarding gadget, which no
        // fence placement can close.
        M.ExpectLeaks = 1;
        M.ExpectRestored = C.Id != "mee-fact";
        M.ExpectClosed = M.ExpectRestored ? 1 : 0;
      }
      M.Case = std::move(C);
      Out.push_back(std::move(M));
    }
  return Out;
}

} // namespace perfbench
