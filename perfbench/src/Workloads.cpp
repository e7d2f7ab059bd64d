//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// table2    the paper's Table 2 batch through CheckSession::checkMany, no
//           cache, workers or passes: one budget-truncated request
//           (mee-c v1v11) decides the batch, so it measures step rate and
//           fork and probe cost.
// audit     the audit service: a cold pass over 575 small requests with
//           SPS and witness minimization on, through an sctworker process
//           into a fresh result cache, then an edit pass re-sending them
//           with a seeded 10% of the random programs replaced — SPS,
//           minimizer, wire format, pool round trips, cache writes and
//           cache reads, with little exploration.
// mitigate  minimal fence placement (MitigationSession) over the leaky
//           suites and crypto models, one case at a time: fence
//           transforms, re-checks and the reuse re-check path.
//
// Every workload runs on one thread (and the audit on one worker
// process): see main.cpp.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Calibration.h"
#include "Corpus.h"
#include "Stats.h"

#include "checker/SpsChecker.h"
#include "engine/MitigationSession.h"
#include "engine/ProcessPool.h"
#include "engine/ResultCache.h"
#include "engine/Serialization.h"
#include "sched/Executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <sys/resource.h>
#include <thread>

using namespace sct;

namespace perfbench {

namespace {

/// Random programs in the audit corpus; each is checked in two modes, so
/// with the suites and figures a batch holds 575 requests.
constexpr size_t AuditRandomPrograms = 250;
/// Share of the random programs an edit pass replaces.
constexpr double EditShare = 0.10;
/// The Table 2 request that decides the batch's time (budget-truncated at
/// 1,048,577 steps); the traced run times it alone.
constexpr const char *Table2LongPole = "mee-c/v1v11";

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

double seconds(const timeval &T) { return double(T.tv_sec) + T.tv_usec / 1e6; }

/// User+system seconds of this process and its reaped children (the
/// sctworker processes are reaped when each batch's pool shuts down).
double cpuSeconds() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return seconds(Self.ru_utime) + seconds(Self.ru_stime) +
         seconds(Kids.ru_utime) + seconds(Kids.ru_stime);
}

/// Peak resident set, MB, of this process (RUSAGE_SELF) or of its largest
/// reaped child so far (RUSAGE_CHILDREN).
double peakRssMb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return double(U.ru_maxrss) / 1024.0;
}

bool exploreDecided(const ExploreResult &E) {
  return !E.Leaks.empty() || !E.Truncated;
}

/// A conclusive verdict: a leak found, a complete walk, or a conclusive
/// SPS report.
bool decided(const CheckResult &R) {
  if (R.Sps && R.Sps->conclusive())
    return true;
  return exploreDecided(R.Exploration);
}

/// Per-batch tallies of one traced batch, summed over the layer calls it
/// made; the per-call timings are kept whole for their medians.
struct LayerTally {
  double BatchS = 0, CpuS = 0;
  double Steps = 0, ConfigsForked = 0, RobBytesCopied = 0;
  double ExploreS = 0, LongpoleS = 0, Pruned = 0, Steals = 0, Truncated = 0;
  double ForkNew = 0, ForkDup = 0, ConvChecks = 0, ConvPrunes = 0;
  double SeenLookups = 0, SeenProbes = 0;
  double SpsS = 0, SpsTapes = 0, SpsRuns = 0, SpsConclusive = 0;
  double FenceTransformS = 0;
  double MinimizeS = 0, MinimizeReplays = 0, MinRaw = 0, MinMin = 0;
  double WireBytes = 0, Lookups = 0, Hits = 0, Fallbacks = 0;
  double Rechecks = 0, RecheckS = 0, ReusePruned = 0;
  std::vector<double> EncodeUs, DecodeUs, LookupUs, StoreUs, RoundtripUs;

  void addExplore(const ExploreResult &E) {
    Steps += double(E.TotalSteps);
    ConfigsForked += double(E.ConfigsForked);
    RobBytesCopied += double(E.RobBytesCopied);
    Pruned += double(E.PrunedNodes);
    Steals += double(E.Steals);
    Truncated += E.Truncated;
    if (E.Stats) {
      ForkNew += double(E.Stats->ForkInsertNew);
      ForkDup += double(E.Stats->ForkInsertDup);
      ConvChecks += double(E.Stats->ConvergenceChecks);
      ConvPrunes += double(E.Stats->ConvergencePrunes);
      SeenLookups += double(E.Stats->Seen.Lookups);
      SeenProbes += double(E.Stats->Seen.Probes);
    }
  }
};

/// What every workload's run accumulates.
struct RunState {
  const RunConfig &Cfg;
  Tracer &T;
  RunReport Report;
  std::vector<double> SetupS, BatchS, CpuS;
  /// Reference kernel times (Calibration.h), taken between batches.
  std::vector<double> RefS;
  double RunStart = 0;
  /// The largest worker process's peak RSS, MB, read before the first
  /// kernel process: after it, the children's peak is at least the
  /// kernel's own.
  double WorkerRssMb = 0;
  bool KernelRan = false;
  uint64_t Requests = 0, Decided = 0;
  // Traced runs only.
  std::vector<LayerTally> Layers;
  double ParseUs = 0, CorpusBuildS = 0;
  double ForkNs = 0, HashNs = 0;
  double SoloLongpoleS = 0, SoloLongpoleThreadedS = 0;

  std::function<void()> Rebuild;
  double LastSetupBurst = 0;

  RunState(const RunConfig &C, Tracer &T) : Cfg(C), T(T) {}

  /// Runs one warm-up batch, whose times are dropped, then batches until
  /// the run's time is up (at least one).  Traced runs alternate an
  /// untraced batch, for the overhead baseline, with a traced one.
  /// Untraced runs time a set-up burst between batches at most every two
  /// seconds.
  void loop(const std::function<void()> &Untraced,
            const std::function<void()> &Traced) {
    Untraced();
    BatchS.clear();
    CpuS.clear();
    RefS.clear();
    double Start = RunStart = now();
    do {
      Untraced();
      if (Cfg.Traced)
        Traced();
      else if (now() - LastSetupBurst >= 2.0)
        setupBurst(1, 0.25);
    } while (now() - Start < Cfg.Seconds);
  }

  /// Builds the workload's inputs and sessions with \p Build, which gets
  /// the tracer (null when untraced) and the parent span for its own
  /// spans, and must give identical inputs every time.  A traced run
  /// builds once inside a `workloads.corpus_build` span.  An untraced run
  /// times builds for setup_s: a burst now and more between batches (see
  /// loop()), so the median samples the host across the whole run — on a
  /// shared host a sub-millisecond set-up ran up to 1.8x slower for
  /// seconds at a time.
  void setUp(const std::function<void(Tracer *, int64_t)> &Build) {
    if (!Cfg.Traced) {
      Rebuild = [Build] { Build(nullptr, -1); };
      setupBurst(5, 0.5);
      return;
    }
    double T0 = now();
    {
      ScopedSpan Sp(&T, "workloads.corpus_build");
      Build(&T, Sp.id());
    }
    CorpusBuildS = now() - T0;
  }

  /// Times at least \p MinReps builds, for at least \p MinSeconds (at
  /// most 5,000 builds).
  void setupBurst(size_t MinReps, double MinSeconds) {
    double Start = now();
    for (size_t N = 0;
         N < MinReps || (now() - Start < MinSeconds && N < 5000); ++N) {
      double T0 = now();
      Rebuild();
      SetupS.push_back(now() - T0);
    }
    LastSetupBurst = now();
  }

  /// Times one untraced batch.  Then it times the reference kernel, as
  /// long as the kernel has taken at most a fifth of the run so far, so
  /// its samples spread over the whole run.
  template <class F> void timeBatch(F &&Batch) {
    double Cpu0 = cpuSeconds(), T0 = now();
    Batch();
    BatchS.push_back(now() - T0);
    CpuS.push_back(cpuSeconds() - Cpu0);
    if (!KernelRan)
      WorkerRssMb = peakRssMb(RUSAGE_CHILDREN);
    double RefTotal = 0;
    for (double R : RefS)
      RefTotal += R;
    if (RefTotal <= 0.2 * (now() - RunStart)) {
      RefS.push_back(referenceSeconds());
      KernelRan = true;
    }
  }

  void countDecided(bool D) {
    ++Requests;
    Decided += D;
  }
};

/// Times configuration copies (a schedule fork) and hash() (a seen-table
/// probe) on the configurations the witnesses replay to.  Returns the
/// median nanoseconds per copy and per hash.
std::pair<double, double>
probeForkAndHash(const std::vector<std::pair<const Program *, Schedule>> &W) {
  constexpr size_t Batch = 64;
  std::vector<double> Fork, Hash;
  uint64_t Sink = 0;
  for (size_t I = 0; I < W.size() && I < 32; ++I) {
    Machine M(*W[I].first);
    RunResult R = runSchedule(M, Configuration::initial(*W[I].first),
                              W[I].second);
    for (int Rep = 0; Rep < 8; ++Rep) {
      std::vector<Configuration> Copies;
      Copies.reserve(Batch);
      double T0 = now();
      for (size_t K = 0; K < Batch; ++K)
        Copies.push_back(R.Final);
      double T1 = now();
      for (Configuration &C : Copies)
        Sink ^= C.hash();
      double T2 = now();
      Fork.push_back((T1 - T0) * 1e9 / Batch);
      Hash.push_back((T2 - T1) * 1e9 / Batch);
    }
  }
  // Keep the hashes observable so the loop is not folded away.
  if (Sink == 0x5eed)
    std::fprintf(stderr, "\n");
  return {median(Fork), median(Hash)};
}

std::vector<CheckRequest> requestsOf(const std::vector<CorpusRequest> &Q) {
  std::vector<CheckRequest> R;
  R.reserve(Q.size());
  for (const CorpusRequest &C : Q)
    R.push_back(C.Req);
  return R;
}

/// Checks a result against its request's known answer.
void checkKnown(RunReport &R, const CorpusRequest &Q, const CheckResult &Res) {
  bool Ok = Res.Id == Q.Req.Id &&
            (!Q.ExpectLeak || *Q.ExpectLeak == !Res.secure());
  R.check(Ok, Q.Req.Id + ": verdict " + (Res.secure() ? "secure" : "leak") +
                  " does not match the known answer");
}

//===----------------------------------------------------------------------===//
// table2
//===----------------------------------------------------------------------===//

void runTable2(RunState &S) {
  const unsigned T = S.Cfg.Threads;
  std::vector<CorpusRequest> Corpus;
  std::vector<CheckRequest> Reqs;
  SessionOptions SO;
  SO.Threads = T;
  std::unique_ptr<CheckSession> Session;
  S.setUp([&](Tracer *, int64_t) {
    Corpus = table2Requests();
    Reqs = requestsOf(Corpus);
    Session = std::make_unique<CheckSession>(SO);
  });
  if (S.Cfg.Traced) {
    // Before anything spawns a thread: the long pole alone at T=1, then
    // again once one idle thread has existed.
    for (const CheckRequest &Q : Reqs)
      if (Q.Id == Table2LongPole) {
        Machine M(Q.Prog, Q.MOpts);
        ExplorerOptions O = Q.Opts;
        O.Threads = 1;
        double T0 = now();
        explore(M, Configuration::initial(Q.Prog), O);
        S.SoloLongpoleS = now() - T0;
        std::thread([] {}).join();
        T0 = now();
        explore(M, Configuration::initial(Q.Prog), O);
        S.SoloLongpoleThreadedS = now() - T0;
      }
  }

  auto Untraced = [&] {
    std::vector<CheckResult> Res;
    S.timeBatch([&] { Res = Session->checkMany(Reqs); });
    for (size_t I = 0; I < Corpus.size(); ++I) {
      checkKnown(S.Report, Corpus[I], Res[I]);
      S.countDecided(decided(Res[I]));
    }
  };

  // The traced batch makes checkMany's in-process split itself:
  // min(T, N) threads, each exploring one request at a time with the
  // leftover frontier share.
  auto Traced = [&] {
    LayerTally L;
    const size_t N = Reqs.size();
    const unsigned Pool = static_cast<unsigned>(std::min<size_t>(T, N));
    const unsigned PerProgram = std::max(1u, T / std::max(1u, Pool));
    std::vector<ExploreResult> Out(N);
    std::vector<double> Dur(N);
    std::atomic<size_t> Next{0};
    double Cpu0 = cpuSeconds();
    int64_t Batch = S.T.begin("engine.check_many");
    auto Drain = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;) {
        ScopedSpan Sp(&S.T, "sched.explore", Batch, int64_t(I));
        double T0 = now();
        Machine M(Reqs[I].Prog, Reqs[I].MOpts);
        ExplorerOptions O = Reqs[I].Opts;
        O.Threads = PerProgram;
        O.CollectStats = true;
        Out[I] = explore(M, Configuration::initial(Reqs[I].Prog), O);
        Dur[I] = now() - T0;
      }
    };
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W < Pool; ++W)
      Threads.emplace_back(Drain);
    for (std::thread &Th : Threads)
      Th.join();
    S.T.end(Batch);
    L.CpuS = cpuSeconds() - Cpu0;
    L.BatchS = S.T.spans()[size_t(Batch)].duration();
    std::vector<std::pair<const Program *, Schedule>> Witnesses;
    for (size_t I = 0; I < N; ++I) {
      bool Ok = Corpus[I].ExpectLeak == !Out[I].secure();
      S.Report.check(Ok, Reqs[I].Id + ": traced verdict does not match");
      L.addExplore(Out[I]);
      L.ExploreS += Dur[I];
      L.LongpoleS = std::max(L.LongpoleS, Dur[I]);
      for (const LeakRecord &Lk : Out[I].Leaks)
        Witnesses.emplace_back(&Reqs[I].Prog, Lk.Sched);
    }
    if (S.Layers.empty())
      std::tie(S.ForkNs, S.HashNs) = probeForkAndHash(Witnesses);
    S.Layers.push_back(std::move(L));
  };
  S.loop(Untraced, Traced);
}

//===----------------------------------------------------------------------===//
// audit
//===----------------------------------------------------------------------===//

/// One batch's inputs: the corpus, and the programs its edit pass puts in
/// place of a seeded 10% of the random ones.
struct AuditSetup {
  std::vector<std::string> Texts;
  AuditCorpus Corpus;
  std::vector<CheckRequest> Reqs;
  std::vector<Program> Replacements;
};

/// Programs an edit pass replaces.
constexpr size_t EditPrograms =
    std::max<size_t>(1, size_t(double(AuditRandomPrograms) * EditShare));

/// Generates the random programs of draw \p Draw — the corpus's, then its
/// replacements — and builds the corpus, parsing the text as `sctcheck`
/// would.  Traced: one span per parse.
void buildAudit(AuditSetup &A, uint64_t Seed, unsigned Draw, Tracer *T,
                int64_t Parent, double *ParseUs) {
  A.Texts.clear();
  for (uint64_t S : randomProgramSeeds(
           Seed, AuditRandomPrograms + EditPrograms, Draw))
    A.Texts.push_back(randomProgramText(S));
  std::vector<Program> Progs;
  std::vector<double> Us;
  for (size_t I = 0; I < A.Texts.size(); ++I) {
    double T0 = now();
    ScopedSpan Sp(T, "isa.parse", Parent, int64_t(I));
    Progs.push_back(parseRandomProgram(A.Texts[I]));
    Us.push_back((now() - T0) * 1e6);
  }
  *ParseUs = median(Us);
  A.Replacements.assign(std::make_move_iterator(Progs.begin() +
                                                long(AuditRandomPrograms)),
                        std::make_move_iterator(Progs.end()));
  Progs.resize(AuditRandomPrograms);
  A.Corpus = auditCorpus(Progs);
  A.Reqs = requestsOf(A.Corpus.Requests);
}

SessionOptions auditSessionOptions(const RunConfig &C, const std::string &Dir) {
  SessionOptions SO;
  SO.Threads = C.Threads;
  SO.Workers = C.Threads;
  SO.Passes.ProveSps = true;
  SO.Passes.MinimizeWitnesses = true;
  SO.CacheDir = Dir;
  return SO;
}

/// Explorer-only verdicts (no passes, no cache) for the reference side of
/// the explorer/SPS agreement check.
std::vector<ExploreResult> explorerVerdicts(const std::vector<CheckRequest> &R,
                                            unsigned Threads) {
  SessionOptions SO;
  SO.Threads = Threads;
  CheckSession Ref(SO);
  std::vector<ExploreResult> Out;
  for (CheckResult &Res : Ref.checkMany(std::span<const CheckRequest>(R)))
    Out.push_back(std::move(Res.Exploration));
  return Out;
}

/// On a random program, the explorer and SPS must agree wherever both
/// are conclusive.
void checkAgreement(RunReport &R, const CheckResult &Res,
                    const ExploreResult &Ref) {
  bool Both = Res.Sps && Res.Sps->conclusive() && exploreDecided(Ref);
  R.check(!Both || Res.Sps->proved() == Ref.secure(),
          Res.Id + ": SPS and the explorer disagree");
}

/// The audit traced batch: the calls checkMany makes for a worker-backed,
/// cached session, made by the harness itself in the same order — cache
/// lookups, the process pool with its wire encode/decode, cache stores.
/// Then, outside the batch time, the checks the workers ran are repeated
/// in-process (wire decode, checkSps, explore, minimizeWitnesses, result
/// encode) with the same per-request thread share, so their layers get
/// spans, and a request's pool round trip is its pool time minus that
/// check time.
std::vector<CheckResult> tracedAuditBatch(RunState &S, const SessionOptions &SO,
                                          const std::vector<CheckRequest> &Reqs,
                                          LayerTally &L) {
  Tracer &T = S.T;
  const size_t N = Reqs.size();
  std::vector<CheckResult> Results(N);
  std::vector<size_t> Pending;
  std::vector<std::vector<uint8_t>> Payload(N);
  std::vector<double> Sent(N), Received(N);
  ResultCache Cache(SO.CacheDir);

  double Cpu0 = cpuSeconds();
  int64_t Batch = T.begin("engine.check_many");
  for (size_t I = 0; I < N; ++I) {
    const PassConfig &P = Reqs[I].resolved(SO);
    double T0 = now();
    std::optional<CheckResult> Hit;
    {
      ScopedSpan Sp(&T, "engine.cache_lookup", Batch, int64_t(I));
      Hit = Cache.lookupResult(Reqs[I], P);
    }
    L.LookupUs.push_back((now() - T0) * 1e6);
    ++L.Lookups;
    if (Hit) {
      ++L.Hits;
      Hit->Id = Reqs[I].Id;
      Hit->FromCache = true;
      Results[I] = std::move(*Hit);
    } else {
      Pending.push_back(I);
    }
  }
  std::vector<size_t> Fallback;
  if (!Pending.empty()) {
    ProcessPool::Options PO;
    PO.WorkerBinary = defaultWorkerBinary();
    PO.Workers = SO.Workers;
    PO.TimeoutSec = SO.WorkerTimeoutSec;
    const unsigned PerProgram = std::max(1u, SO.Threads / SO.Workers);
    ScopedSpan PoolSpan(&T, "engine.pool_run", Batch);
    ProcessPool Pool(PO);
    auto Encode = [&](size_t I) {
      Sent[I] = now();
      ScopedSpan Sp(&T, "engine.wire_encode", PoolSpan.id(), int64_t(I));
      CheckRequest Wire = Reqs[I];
      if (!Wire.Opts.Threads)
        Wire.Opts.Threads = PerProgram;
      Payload[I] = serializeWireRequest(Wire, Wire.resolved(SO));
      L.EncodeUs.push_back((now() - Sent[I]) * 1e6);
      L.WireBytes += double(Payload[I].size());
      return Payload[I];
    };
    auto Decode = [&](size_t I, std::span<const uint8_t> Bytes) {
      Received[I] = now();
      ScopedSpan Sp(&T, "engine.wire_decode", PoolSpan.id(), int64_t(I));
      std::optional<CheckResult> Res = deserializeCheckResult(Bytes);
      L.DecodeUs.push_back((now() - Received[I]) * 1e6);
      L.WireBytes += double(Bytes.size());
      if (!Res)
        return false;
      Res->Id = Reqs[I].Id;
      Results[I] = std::move(*Res);
      return true;
    };
    Fallback = Pool.ok() ? Pool.run(Pending, Encode, Decode) : Pending;
  }
  L.Fallbacks += double(Fallback.size());
  if (!Fallback.empty()) {
    SessionOptions Local = SO;
    Local.CacheDir.clear();
    Local.Workers = 0;
    CheckSession InProcess(Local);
    for (size_t I : Fallback)
      Results[I] = InProcess.check(Reqs[I]);
  }
  for (size_t I : Pending) {
    double T0 = now();
    ScopedSpan Sp(&T, "engine.cache_store", Batch, int64_t(I));
    Cache.storeResult(Reqs[I], Reqs[I].resolved(SO), Results[I]);
    L.StoreUs.push_back((now() - T0) * 1e6);
  }
  T.end(Batch);
  L.CpuS += cpuSeconds() - Cpu0;
  L.BatchS += T.spans()[size_t(Batch)].duration();

  // The workers' side, repeated in-process over the same thread budget.
  // Each thread writes only its own requests' slots.
  struct WorkerSide {
    CheckResult Res;
    bool Ran = false;
    double DecodeS = 0, EncodeS = 0, SpsS = 0, ExploreS = 0, MinimizeS = 0;
    double checkS() const { return SpsS + ExploreS + MinimizeS; }
  };
  std::vector<WorkerSide> Side(N);
  std::atomic<size_t> Next{0};
  // Times Body inside a span named Name, adding the seconds to Into.
  auto Timed = [&](const char *Name, int64_t Parent, size_t I, double &Into,
                   const auto &Body) {
    double T0 = now();
    ScopedSpan Sp(&T, Name, Parent, int64_t(I));
    Body();
    Into += now() - T0;
  };
  auto Drain = [&] {
    for (size_t K; (K = Next.fetch_add(1)) < Pending.size();) {
      const size_t I = Pending[K];
      if (Payload[I].empty())
        continue; // Never reached a worker (pool failure).
      WorkerSide &WS = Side[I];
      ScopedSpan Run(&T, "engine.run_one", -1, int64_t(I));
      std::optional<WireRequest> W;
      Timed("engine.wire_decode", Run.id(), I, WS.DecodeS,
            [&] { W = deserializeWireRequest(Payload[I]); });
      if (!W)
        continue;
      CheckResult &Res = WS.Res;
      Res.Id = W->Id;
      Res.Opts = W->Opts;
      Machine M(W->Prog, W->MOpts);
      Configuration Init = Configuration::initial(W->Prog);
      if (W->Passes.ProveSps)
        Timed("checker.sps", Run.id(), I, WS.SpsS, [&] {
          Res.Sps = checkSps(W->Prog, Res.Opts, W->MOpts, W->Passes.Sps);
        });
      if (!(Res.Sps && Res.Sps->conclusive())) {
        ExplorerOptions O = Res.Opts;
        O.CollectStats = true;
        if (W->Passes.MinimizeWitnesses && W->Passes.Minimize.SeedReplays &&
            O.Snapshots == SnapshotPolicy::Hybrid)
          O.RecordCheckpointChain = true;
        Timed("sched.explore", Run.id(), I, WS.ExploreS,
              [&] { Res.Exploration = explore(M, Init, O); });
        if (W->Passes.MinimizeWitnesses) {
          MinimizeOptions MO = W->Passes.Minimize;
          if (!MO.Threads)
            MO.Threads = std::max(1u, O.Threads);
          Timed("engine.minimize", Run.id(), I, WS.MinimizeS, [&] {
            Res.Minimization =
                minimizeWitnesses(M, Init, Res.Exploration.Leaks, MO);
          });
        }
      }
      Timed("engine.wire_encode", Run.id(), I, WS.EncodeS,
            [&] { serializeCheckResult(Res); });
      WS.Ran = true;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < std::min<size_t>(SO.Workers, Pending.size()); ++W)
    Threads.emplace_back(Drain);
  for (std::thread &Th : Threads)
    Th.join();

  // Per-layer totals from the in-process repeat, whose verdicts must
  // match what the workers returned.
  for (size_t I : Pending) {
    const WorkerSide &WS = Side[I];
    if (!WS.Ran)
      continue;
    const CheckResult &Res = WS.Res;
    S.Report.check(Res.secure() == Results[I].secure(),
                   Reqs[I].Id + ": in-process repeat disagrees with worker");
    L.DecodeUs.push_back(WS.DecodeS * 1e6);
    L.EncodeUs.push_back(WS.EncodeS * 1e6);
    L.SpsS += WS.SpsS;
    L.MinimizeS += WS.MinimizeS;
    if (Res.Sps) {
      ++L.SpsRuns;
      L.SpsConclusive += Res.Sps->conclusive();
      L.SpsTapes += double(Res.Sps->TapesRun);
    }
    if (!(Res.Sps && Res.Sps->conclusive())) {
      L.addExplore(Res.Exploration);
      L.ExploreS += WS.ExploreS;
      L.LongpoleS = std::max(L.LongpoleS, WS.ExploreS);
    }
    if (Res.Minimization) {
      L.MinimizeReplays += double(Res.Minimization->Replays);
      L.MinRaw += double(Res.Minimization->RawDirectives);
      L.MinMin += double(Res.Minimization->MinimizedDirectives);
    }
    if (Received[I] > 0)
      L.RoundtripUs.push_back((Received[I] - Sent[I] - WS.checkS()) * 1e6);
  }
  return Results;
}

/// Cold-pass result bytes by cache key.  Identical requests (Figures 4a
/// and 4b are one program under one set of options) share a cache entry,
/// which holds whichever of their cold results was stored last, so an
/// edit-pass result must equal one of its key's cold results.  The
/// request id is serialized but is the caller's label, not part of the
/// entry, so bytes are compared with it cleared.
using CacheKey = std::pair<uint64_t, uint64_t>;
using ColdBytesMap = std::map<CacheKey, std::vector<std::vector<uint8_t>>>;

std::vector<uint8_t> unlabelledBytes(CheckResult R) {
  R.Id.clear();
  return serializeCheckResult(R);
}

CacheKey cacheKey(const CheckRequest &R, const SessionOptions &SO) {
  std::optional<ResultCache::Key> K = ResultCache::keyFor(R, R.resolved(SO));
  return K ? CacheKey{K->ProgHash, K->OptsFp} : CacheKey{0, 0};
}

void runAudit(RunState &S) {
  const RunConfig &C = S.Cfg;
  const std::string Dir =
      C.WorkDir + "/cache-" + C.Workload + "-" + std::to_string(C.Seed);
  AuditSetup A;
  SessionOptions SO = auditSessionOptions(C, Dir);
  std::unique_ptr<CheckSession> Session;
  // Set-up opens a session on a fresh cache of its own: it repeats
  // between batches, and must not empty the cache a batch relies on.
  SessionOptions SetupSO = auditSessionOptions(C, Dir + "-setup");
  S.setUp([&](Tracer *T, int64_t Parent) {
    buildAudit(A, C.Seed, 0, T, Parent, &S.ParseUs);
    std::filesystem::remove_all(SetupSO.CacheDir);
    CheckSession Fresh(SetupSO);
  });
  std::filesystem::remove_all(SetupSO.CacheDir);
  const std::vector<CorpusRequest> &Q = A.Corpus.Requests;
  const size_t First = A.Corpus.FirstRandom;

  // Checks one pass's results; Cold holds the cold pass's bytes when this
  // is an edit pass, and Edited marks the replaced requests.
  auto Verify = [&](const std::vector<CheckRequest> &Reqs,
                    const std::vector<CheckResult> &Res,
                    const std::vector<ExploreResult> &Ref,
                    const ColdBytesMap *Cold,
                    const std::vector<bool> *Edited) {
    for (size_t I = 0; I < Reqs.size(); ++I) {
      if (Res[I].Id != Reqs[I].Id) {
        S.Report.check(false, Reqs[I].Id + ": result missing");
        continue;
      }
      if (I < First)
        checkKnown(S.Report, Q[I], Res[I]);
      else
        checkAgreement(S.Report, Res[I], Ref[I - First]);
      if (Cold && !(*Edited)[I]) {
        auto It = Cold->find(cacheKey(Reqs[I], SO));
        bool Same = false;
        if (Res[I].FromCache && It != Cold->end()) {
          std::vector<uint8_t> Bytes = unlabelledBytes(Res[I]);
          for (const std::vector<uint8_t> &B : It->second)
            Same |= B == Bytes;
        }
        S.Report.check(Same, Reqs[I].Id + ": edit-pass result is not a cold "
                                          "pass's bytes");
      }
      S.countDecided(decided(Res[I]));
    }
  };

  // One batch's inputs, built untimed: draw Draw's corpus with the
  // explorer-only verdicts of its random requests, then its edit pass —
  // the corpus with a seeded 10% of the random programs replaced.  Each
  // batch is a fresh draw on an empty cache, so the run's median is over
  // many corpora, not one seed's few slowest programs.
  struct Batch {
    std::vector<ExploreResult> Ref;
    std::vector<CheckRequest> EditReqs;
    std::vector<bool> Edited;
    std::vector<ExploreResult> EditRef;
  };
  unsigned Draw = 0;
  double Unused = 0;
  auto Prepare = [&] {
    Batch B;
    buildAudit(A, C.Seed, Draw, nullptr, -1, &Unused);
    std::vector<CheckRequest> RandomReqs(A.Reqs.begin() + long(First),
                                         A.Reqs.end());
    B.Ref = explorerVerdicts(RandomReqs, C.Threads);
    const size_t NRandom = AuditRandomPrograms;
    std::vector<size_t> Slots(NRandom);
    for (size_t I = 0; I < NRandom; ++I)
      Slots[I] = I;
    std::mt19937_64 Rng(C.Seed * 0x9E3779B97F4A7C15ull + Draw);
    std::shuffle(Slots.begin(), Slots.end(), Rng);
    Slots.resize(EditPrograms);
    std::vector<CorpusRequest> New;
    for (size_t K = 0; K < EditPrograms; ++K)
      addModeRequests(New, "edit-" + std::to_string(Draw) + "-" +
                               std::to_string(K),
                      A.Replacements[K]);
    std::vector<CheckRequest> NewReqs = requestsOf(New);
    std::vector<ExploreResult> NewRef = explorerVerdicts(NewReqs, C.Threads);
    B.EditReqs = A.Reqs;
    B.Edited.assign(A.Reqs.size(), false);
    B.EditRef = B.Ref;
    for (size_t K = 0; K < EditPrograms; ++K)
      for (size_t Mode = 0; Mode < 2; ++Mode) {
        size_t I = First + 2 * Slots[K] + Mode;
        B.EditReqs[I] = NewReqs[2 * K + Mode];
        B.Edited[I] = true;
        B.EditRef[I - First] = NewRef[2 * K + Mode];
      }
    ++Draw;
    std::filesystem::remove_all(Dir);
    Session = std::make_unique<CheckSession>(SO);
    return B;
  };
  // Checks both passes: the cold one against the known answers and the
  // explorer, the edit one also against the cold pass's bytes.
  auto VerifyBatch = [&](const Batch &B, const std::vector<CheckResult> &Cold,
                         const std::vector<CheckResult> &Edit) {
    Verify(A.Reqs, Cold, B.Ref, nullptr, nullptr);
    ColdBytesMap ColdBytes;
    for (size_t I = 0; I < Cold.size(); ++I)
      ColdBytes[cacheKey(A.Reqs[I], SO)].push_back(unlabelledBytes(Cold[I]));
    Verify(B.EditReqs, Edit, B.EditRef, &ColdBytes, &B.Edited);
  };

  auto Untraced = [&] {
    Batch B = Prepare();
    std::vector<CheckResult> Cold, Edit;
    S.timeBatch([&] {
      Cold = Session->checkMany(A.Reqs);
      Edit = Session->checkMany(B.EditReqs);
    });
    VerifyBatch(B, Cold, Edit);
  };
  auto Traced = [&] {
    Batch B = Prepare();
    LayerTally L;
    std::vector<CheckResult> Cold = tracedAuditBatch(S, SO, A.Reqs, L);
    std::vector<CheckResult> Edit = tracedAuditBatch(S, SO, B.EditReqs, L);
    VerifyBatch(B, Cold, Edit);
    // The fork/hash probe replays the random programs' witnesses, once
    // per run.
    if (S.Layers.empty()) {
      std::vector<std::pair<const Program *, Schedule>> Witnesses;
      for (size_t I = First; I < Cold.size(); ++I)
        for (const LeakRecord &Lk : Cold[I].Exploration.Leaks)
          Witnesses.emplace_back(&A.Reqs[I].Prog, Lk.Sched);
      std::tie(S.ForkNs, S.HashNs) = probeForkAndHash(Witnesses);
    }
    S.Layers.push_back(std::move(L));
  };
  S.loop(Untraced, Traced);
  Session.reset();
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(SetupSO.CacheDir);
}

//===----------------------------------------------------------------------===//
// mitigate
//===----------------------------------------------------------------------===//

void runMitigate(RunState &S) {
  const unsigned T = S.Cfg.Threads;
  std::vector<MitigateCase> Cases;
  std::unique_ptr<MitigationSession> MS;
  SessionOptions SO;
  SO.Threads = T;
  S.setUp([&](Tracer *, int64_t) {
    Cases = mitigateCases();
    MS = std::make_unique<MitigationSession>(SO);
  });

  struct CaseOutcome {
    MitigationReport Rep;
    std::optional<FencePlacementResult> FP;
  };
  auto Verify = [&](const std::vector<CaseOutcome> &Out) {
    for (size_t I = 0; I < Cases.size(); ++I) {
      const MitigateCase &M = Cases[I];
      const CaseOutcome &O = Out[I];
      const std::string &Id = M.Case.Id;
      bool Leaky = !O.Rep.Baseline.secure();
      bool Ok = Leaky == M.ExpectLeak;
      bool Decided = exploreDecided(O.Rep.Baseline.Exploration);
      if (Ok && Leaky) {
        const MitigationVariant &V = O.Rep.Variants.front();
        Ok = V.applied() && O.FP && V.Leaks.size() == M.ExpectLeaks &&
             V.closedCount() == M.ExpectClosed &&
             O.FP->RestoredSct == M.ExpectRestored;
        // A restored case is decided when its final fence set's check is
        // conclusive; an unrestored one still leaks, which is a verdict.
        Decided = Ok && (!O.FP->RestoredSct || decided(O.FP->Final));
      }
      S.Report.check(Ok, Id + ": mitigation outcome does not match");
      S.countDecided(Decided);
    }
  };
  // One case: the mitigation report, then, for a leaky baseline, the
  // placement search seeded with that baseline.
  auto RunCase = [&](const MitigateCase &M, const ExplorerOptions &Mode,
                     CaseOutcome &O, Tracer *Tr, LayerTally *L, int64_t Parent,
                     int64_t Req) {
    FenceInsertion Blanket(M.Policy);
    if (Tr) {
      double T0 = now();
      ScopedSpan Sp(Tr, "checker.fence_transform", Parent, Req);
      Blanket.run(M.Case.Prog);
      L->FenceTransformS += now() - T0;
    }
    {
      ScopedSpan Sp(Tr, "engine.mitigation_run", Parent, Req);
      O.Rep = MS->run(M.Case.Prog, Mode, Blanket);
    }
    if (O.Rep.Baseline.secure())
      return;
    FencePlacementOptions FO;
    FO.Blanket = M.Policy;
    double T0 = now();
    {
      ScopedSpan Sp(Tr, "engine.fence_placement", Parent, Req);
      O.FP = MS->minimizeFencePlacement(M.Case.Prog, Mode, FO, MachineOptions{},
                                        &O.Rep.Baseline);
    }
    if (L)
      L->RecheckS += now() - T0;
  };

  auto Untraced = [&] {
    std::vector<CaseOutcome> Out(Cases.size());
    S.timeBatch([&] {
      for (size_t I = 0; I < Cases.size(); ++I)
        RunCase(Cases[I], Cases[I].Mode, Out[I], nullptr, nullptr, -1,
                int64_t(I));
    });
    Verify(Out);
  };
  auto Traced = [&] {
    LayerTally L;
    std::vector<CaseOutcome> Out(Cases.size());
    std::vector<double> CaseS(Cases.size());
    double Cpu0 = cpuSeconds(), T0 = now();
    int64_t Batch = S.T.begin("engine.mitigate_batch");
    for (size_t I = 0; I < Cases.size(); ++I) {
      ExplorerOptions Mode = Cases[I].Mode;
      Mode.CollectStats = true;
      double C0 = now();
      RunCase(Cases[I], Mode, Out[I], &S.T, &L, Batch, int64_t(I));
      CaseS[I] = now() - C0;
    }
    S.T.end(Batch);
    L.BatchS = now() - T0;
    L.CpuS = cpuSeconds() - Cpu0;
    Verify(Out);
    std::vector<std::pair<const Program *, Schedule>> Witnesses;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const CaseOutcome &O = Out[I];
      L.addExplore(O.Rep.Baseline.Exploration);
      L.ExploreS += O.Rep.Baseline.Seconds;
      L.LongpoleS = std::max(L.LongpoleS, CaseS[I]);
      for (const LeakRecord &Lk : O.Rep.Baseline.Exploration.Leaks)
        Witnesses.emplace_back(&Cases[I].Case.Prog, Lk.Sched);
      for (const MitigationVariant &V : O.Rep.Variants) {
        if (!V.applied())
          continue;
        ++L.Rechecks;
        L.RecheckS += V.After.Seconds;
        L.ReusePruned += double(V.ReusePrunedNodes);
        L.addExplore(V.After.Exploration);
        L.ExploreS += V.After.Seconds;
      }
      if (O.FP) {
        L.Rechecks += O.FP->ChecksSpent;
        L.ReusePruned += double(O.FP->Final.Exploration.ReusePrunedNodes);
      }
    }
    if (S.Layers.empty())
      std::tie(S.ForkNs, S.HashNs) = probeForkAndHash(Witnesses);
    S.Layers.push_back(std::move(L));
  };
  S.loop(Untraced, Traced);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// One line per timed series: its summary, then, for up to 64 samples,
/// every sample in order.
void printSamples(const char *Name, const std::vector<double> &V) {
  Summary Sm = summarize(V);
  std::printf("samples %-8s n=%zu median=%.6g q1=%.6g q3=%.6g "
              "iqr/median=%.4f:",
              Name, Sm.N, Sm.Median, Sm.Q1, Sm.Q3, Sm.relativeSpread());
  for (size_t I = 0; I < V.size() && V.size() <= 64; ++I)
    std::printf(" %.6g", V[I]);
  std::printf("\n");
}

void emitEndToEnd(RunState &S) {
  RunReport &R = S.Report;
  printSamples("batch_s", S.BatchS);
  printSamples("cpu_s", S.CpuS);
  printSamples("ref_s", S.RefS);
  printSamples("setup_s", S.SetupS);
  const double Ref = median(S.RefS);
  R.add("setup_s", median(S.SetupS), "s");
  R.add("batch_ref", median(S.BatchS) / Ref, "x");
  R.add("cpu_ref", median(S.CpuS) / Ref, "x");
  R.add("peak_rss_mb", peakRssMb(RUSAGE_SELF) + S.WorkerRssMb, "MB");
  R.add("decided_ratio", ratio(double(S.Decided), double(S.Requests)), "ratio");
  R.add("verified_ratio",
        ratio(double(R.Attempted - R.Failed), double(R.Attempted)), "ratio");
}

void emitPerLayer(RunState &S) {
  RunReport &R = S.Report;
  const std::vector<LayerTally> &Ls = S.Layers;
  // Median over the traced batches of one per-batch value.
  auto Med = [&](const std::function<double(const LayerTally &)> &F) {
    std::vector<double> V;
    for (const LayerTally &L : Ls)
      V.push_back(F(L));
    return median(V);
  };
  // Median over every call of a per-call timing.
  auto MedCalls = [&](std::vector<double> LayerTally::*Field) {
    std::vector<double> V;
    for (const LayerTally &L : Ls)
      V.insert(V.end(), (L.*Field).begin(), (L.*Field).end());
    return median(V);
  };
  const double Threads = S.Cfg.Threads;
  const double TracedBatch = Med([](auto &L) { return L.BatchS; });

  R.add("core.steps", Med([](auto &L) { return L.Steps; }), "count");
  R.add("core.steps_per_cpu_s",
        Med([](auto &L) { return ratio(L.Steps, L.CpuS); }), "1/s");
  R.add("core.configs_forked", Med([](auto &L) { return L.ConfigsForked; }),
        "count");
  R.add("core.rob_bytes_copied", Med([](auto &L) { return L.RobBytesCopied; }),
        "bytes");
  R.add("core.fork_ns", S.ForkNs, "ns");
  R.add("core.hash_ns", S.HashNs, "ns");

  R.add("sched.explore_s", Med([](auto &L) { return L.ExploreS; }), "s");
  R.add("sched.longpole_s", Med([](auto &L) { return L.LongpoleS; }), "s");
  R.add("sched.idle_thread_s", Med([&](auto &L) {
          return Threads * L.BatchS - L.CpuS;
        }),
        "s");
  R.add("sched.pruned_nodes", Med([](auto &L) { return L.Pruned; }), "count");
  R.add("sched.fork_dup_ratio",
        Med([](auto &L) { return ratio(L.ForkDup, L.ForkNew + L.ForkDup); }),
        "ratio");
  R.add("sched.convergence_prune_ratio",
        Med([](auto &L) { return ratio(L.ConvPrunes, L.ConvChecks); }),
        "ratio");
  R.add("sched.seen_probes_per_lookup",
        Med([](auto &L) { return ratio(L.SeenProbes, L.SeenLookups); }),
        "ratio");
  R.add("sched.steals", Med([](auto &L) { return L.Steals; }), "count");
  R.add("sched.truncated", Med([](auto &L) { return L.Truncated; }), "count");
  R.add("sched.solo_longpole_s", S.SoloLongpoleS, "s");
  R.add("sched.solo_longpole_threaded_s", S.SoloLongpoleThreadedS, "s");

  R.add("checker.sps_s", Med([](auto &L) { return L.SpsS; }), "s");
  R.add("checker.sps_tapes", Med([](auto &L) { return L.SpsTapes; }), "count");
  R.add("checker.sps_conclusive_ratio",
        Med([](auto &L) { return ratio(L.SpsConclusive, L.SpsRuns); }),
        "ratio");
  R.add("checker.fence_transform_s",
        Med([](auto &L) { return L.FenceTransformS; }), "s");

  R.add("engine.minimize_s", Med([](auto &L) { return L.MinimizeS; }), "s");
  R.add("engine.minimize_replays",
        Med([](auto &L) { return L.MinimizeReplays; }), "count");
  R.add("engine.minimize_shrink_ratio",
        Med([](auto &L) { return ratio(L.MinMin, L.MinRaw); }), "ratio");
  R.add("engine.wire_encode_us", MedCalls(&LayerTally::EncodeUs), "us");
  R.add("engine.wire_decode_us", MedCalls(&LayerTally::DecodeUs), "us");
  R.add("engine.wire_bytes", Med([](auto &L) { return L.WireBytes; }),
        "bytes");
  R.add("engine.cache_lookup_us", MedCalls(&LayerTally::LookupUs), "us");
  R.add("engine.cache_store_us", MedCalls(&LayerTally::StoreUs), "us");
  R.add("engine.cache_hit_ratio",
        Med([](auto &L) { return ratio(L.Hits, L.Lookups); }), "ratio");
  R.add("engine.pool_roundtrip_us", MedCalls(&LayerTally::RoundtripUs), "us");
  R.add("engine.pool_fallbacks", Med([](auto &L) { return L.Fallbacks; }),
        "count");
  R.add("engine.rechecks", Med([](auto &L) { return L.Rechecks; }), "count");
  R.add("engine.recheck_s", Med([](auto &L) { return L.RecheckS; }), "s");
  R.add("engine.reuse_pruned_nodes",
        Med([](auto &L) { return L.ReusePruned; }), "count");

  R.add("isa.parse_us", S.ParseUs, "us");
  R.add("workloads.corpus_build_s", S.CorpusBuildS, "s");

  R.add("trace.batch_s", TracedBatch, "s");
  R.add("trace.untraced_batch_s", median(S.BatchS), "s");
  R.add("trace.reference_s", median(S.RefS), "s");
  R.add("trace.overhead_ratio", ratio(TracedBatch, median(S.BatchS)), "ratio");
  R.add("trace.spans", double(S.T.spans().size()), "count");
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"table2", "audit",
                                                 "mitigate"};
  return Names;
}

RunReport runWorkload(const RunConfig &C, Tracer &T) {
  RunState S(C, T);
  if (C.Workload == "table2")
    runTable2(S);
  else if (C.Workload == "audit")
    runAudit(S);
  else if (C.Workload == "mitigate")
    runMitigate(S);
  if (C.Traced)
    emitPerLayer(S);
  else
    emitEndToEnd(S);
  return std::move(S.Report);
}

} // namespace perfbench
