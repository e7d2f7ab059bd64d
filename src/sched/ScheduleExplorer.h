//===- sched/ScheduleExplorer.h - Worst-case schedule exploration -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pitchfork's schedule generation (§4.1, Definition B.18): a bounded set
/// of *worst-case attacker schedules* that is sound — if any well-formed
/// schedule exhibits a secret-labelled observation, some explored schedule
/// does too (Theorem B.20).
///
/// The schedules eagerly fetch until the reorder buffer holds
/// `SpeculationBound` entries, execute everything as soon as data allows,
/// and fork at the genuine decision points:
///  - both guesses of every conditional branch (the mispredicted guess is
///    resolved as late as possible, maximising wrong-path execution);
///  - for every store, resolving its address eagerly vs. delaying it past
///    younger loads (the §3.4 store-forwarding hazards; Spectre v4);
///  - optionally, alias-predicted forwards `execute i : fwd j` (§3.5);
///  - optionally, attacker-chosen indirect-jump targets (Spectre v2) and
///    RSB-underflow return targets (ret2spec), which the original
///    Pitchfork does not explore (§4, "Pitchfork only exercises a subset
///    of our semantics").
///
/// Every step's observation is checked for a secret label; each finding is
/// reported with the complete directive schedule that reaches it, so a
/// violation is a replayable witness.
///
/// Exploration is engine-shaped: an explicit frontier of `ExploreNode`s
/// (schedule prefix + snapshot) drained by a pool of worker threads.
/// With `Threads = N > 1` the frontier is *sharded*: each worker owns a
/// Chase-Lev-style deque (sched/WorkDeque.h) it pushes and pops LIFO, and
/// steals the oldest half of a random victim's deque when its own runs
/// dry.  Optionally a cross-schedule seen-state table
/// (`PruneSeen`, sched/SeenStates.h) keyed on `Configuration::hash()`
/// drops frontier candidates whose configuration was already visited on
/// any schedule — v4-mode hazard re-executions converge onto previously
/// forked states constantly, and identical configurations have identical
/// subtrees.  Every probe reads the incremental fingerprint, which a
/// parent folds once before forking so its copies share the work.
///
/// Forks snapshot by copying the configuration (`SnapshotPolicy::Copy`;
/// cheap now that memory is copy-on-write) or by prefix replay
/// (`SnapshotPolicy::Hybrid`): a `Schedule` is already a replayable
/// witness, so a running path publishes a shared checkpoint of its
/// configuration every `CheckpointInterval` directives, forked nodes store
/// only the prefix plus a reference to the nearest checkpoint, and
/// materialization replays at most ~CheckpointInterval directives from
/// that checkpoint.  Replay cost is bounded by K while siblings share one
/// checkpoint (see `ExploreResult::Checkpoints`/`ReplaySteps`); an
/// interval no path reaches replays every node's whole prefix from the
/// root checkpoint.
///
/// **Determinism contract.**  `Threads <= 1` drains the frontier on the
/// calling thread in the legacy depth-first order: schedules complete in
/// a fixed sequence and every counter in `ExploreResult` is reproducible
/// run-to-run (with `PruneSeen` on — the default — still deterministic:
/// the same duplicates are pruned at the same points).  `Threads = N > 1` drains
/// in a racy order but produces the **identical deduplicated leak set**
/// for any N and snapshot policy: schedule-tree forks are
/// independent of drain order, per-worker leak buffers merge through
/// `LeakRecord::key()`, and the MaxLeaks budget counts globally-unique
/// keys.  With `PruneSeen` off, `TotalSteps`/`SchedulesCompleted` are
/// also N-independent (work conservation); with it on (the default) they
/// shrink and, under N > 1, may vary run-to-run by which racing twin got
/// pruned — the leak set still does not.
///
/// **Thread-safety.**  One `explore()` call builds its own workers,
/// frontier, and seen table; concurrent `explore()` calls (as
/// CheckSession::checkMany issues) share nothing but the immutable
/// Machine and Program.  The Configuration's COW memory is safe to share
/// between workers: forks unshare before their first store.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_SCHEDULEEXPLORER_H
#define SCT_SCHED_SCHEDULEEXPLORER_H

#include "sched/Executor.h"
#include "sched/SeenStates.h"
#include "support/Hashing.h"

namespace sct {

/// A full-configuration checkpoint published by a Hybrid-policy path: the
/// state reached after applying the first `Len` directives of the path's
/// schedule.  Shared (immutable, behind shared_ptr) between every node
/// forked from the same stretch of path.  When
/// `ExplorerOptions::RecordCheckpointChain` is set each checkpoint also
/// links to the one it superseded, so a consumer holding the newest
/// checkpoint of a path can walk back to the nearest checkpoint at or
/// before *any* prefix length — the witness minimizer seeds its ddmin
/// candidate replays from these rungs instead of the initial
/// configuration (engine/WitnessMinimizer.h).
struct Checkpoint {
  Configuration Config;
  /// How many directives of the publishing path's schedule `Config` has
  /// applied; the prefix Sched[0, Len) of any schedule that reaches this
  /// checkpoint replays Init to exactly `Config`.
  size_t Len = 0;
  /// The previous checkpoint on the same path; null unless
  /// `RecordCheckpointChain` (keeping the whole chain alive costs one
  /// configuration per CheckpointInterval directives of path progress, so
  /// it is opt-in for consumers that replay mid-schedule).
  std::shared_ptr<const Checkpoint> Prev;
};

/// How a fork in the schedule tree checkpoints machine state.
enum class SnapshotPolicy : unsigned char {
  /// Store the forked configuration itself.  Copy-on-write memory makes
  /// this cheap in space until a side writes; it is the fastest policy.
  Copy,
  /// Prefix replay from shared checkpoints: a running path publishes a shared,
  /// immutable checkpoint of its configuration every
  /// `ExplorerOptions::CheckpointInterval` directives; forked nodes store
  /// the directive prefix plus a reference to the nearest checkpoint and
  /// re-derive their configuration by replaying at most ~K directives
  /// from it.  Bounds replay CPU by K and frontier memory by one shared
  /// checkpoint per K directives of path progress — the middle ground
  /// between Copy and whole-prefix replay.
  Hybrid,
};

/// Exploration knobs (§4.2.1's two configurations are:
/// {Bound=250, Hazards=false} and {Bound=20, Hazards=true}).
struct ExplorerOptions {
  /// Reorder-buffer size limit; bounds the depth of speculation.  0
  /// leaves no room to fetch: explore() then stops at once with
  /// `Truncated` set (the wire reader and sctcheck reject it outright).
  unsigned SpeculationBound = 20;
  /// Delay store-address resolution and explore forwarding hazards
  /// (Spectre v4).  The paper's "forwarding hazard detection": stores
  /// resolve their addresses as late as possible, younger loads read
  /// stale memory, and the forced resolution raises hazards that roll
  /// back and re-execute with the forwarded value — so both the stale and
  /// the fresh outcome of every store/load pair are explored.
  bool ExploreForwardingHazards = true;
  /// Fork Pitchfork's explicit [execute s_i : addr; execute l] schedules
  /// (§4.1) for *every* earlier unresolved store.  By default the forks
  /// are taken only for stores sitting in the shadow of unresolved
  /// control flow — stores a rollback would squash before their forced
  /// resolution, i.e. exactly the cases the forced-resolution rollbacks
  /// cannot cover (Spectre v1.1).  Architectural-path stores are covered
  /// by the forced resolution's hazard re-execution, so skipping their
  /// forks loses no leaks and avoids exponential blow-up on store-heavy
  /// straight-line code.
  bool ExhaustiveForwardForks = false;
  /// Mispredict/mistrain forks stop once this many unresolved branches or
  /// indirect jumps are in flight, bounding nested wrong-path loop
  /// unrolling (the paper's "explosion in state space", §4.2).
  unsigned MaxBranchDepth = 4;
  /// Fork on alias-predicted forwards (§3.5's hypothetical predictor).
  bool ExploreAliasPrediction = false;
  /// Extra attacker-chosen targets for indirect jumps (Spectre v2
  /// mistraining).  Empty = predict correctly, as Pitchfork does.
  std::vector<PC> IndirectTargets;
  /// Extra attacker-chosen targets for ret on RSB underflow (ret2spec).
  std::vector<PC> RsbUnderflowTargets;
  /// Budgets, shared atomically between workers.  Exhausting any of them
  /// marks the result `Truncated` (found leaks stay trustworthy; a clean
  /// verdict does not).
  uint64_t MaxSchedules = 1 << 20;
  uint64_t MaxStepsPerSchedule = 1 << 14;
  uint64_t MaxTotalSteps = 8ull << 20;
  size_t MaxLeaks = 4096;
  /// Stop the whole exploration at the first leak.
  bool StopAtFirstLeak = false;
  /// Worker threads draining the exploration frontier.  0 means "unset":
  /// explore() runs sequentially, and a CheckSession substitutes its own
  /// thread share.  0 or 1 explores on the calling thread in
  /// deterministic depth-first order; N > 1 produces the identical
  /// deduplicated leak set (per-worker leak buffers are merged through
  /// LeakRecord::key()).
  unsigned Threads = 0;
  /// How forked nodes checkpoint state (see SnapshotPolicy).
  SnapshotPolicy Snapshots = SnapshotPolicy::Copy;
  /// Hybrid snapshots only: a path publishes a fresh shared checkpoint
  /// once it has run this many directives past the previous one, so
  /// materializing any frontier node replays at most ~CheckpointInterval
  /// directives.  Smaller = more checkpoint memory, less replay CPU;
  /// 0 is treated as 1 (every node checkpoints, ≈ Copy with sharing) and
  /// UINT_MAX replays every node's whole prefix from the root checkpoint.
  /// The default 16 comes from a K = 1..64 sweep over four trees when the
  /// policy was added (commit eb0100c): on mee-c v4 it replayed 13,695
  /// directives against whole-prefix replay's 146,649 and published 6,482
  /// checkpoints against K = 1's 72,574.
  unsigned CheckpointInterval = 16;
  /// Hybrid snapshots only: link every published checkpoint to the one it
  /// superseded and hand the chain head to each `LeakRecord` (see
  /// `Checkpoint::Prev`).  Off by default — the chain keeps every
  /// checkpoint of a path alive for the lifetime of the leaks referencing
  /// it; CheckSession turns it on when witness minimization will consume
  /// the rungs as mid-schedule replay seeds.
  bool RecordCheckpointChain = false;
  /// Cross-schedule state pruning: fingerprint every frontier candidate
  /// with Configuration::hash() and drop candidates whose configuration
  /// was already visited on any schedule; additionally cut a path short
  /// when a forwarding-hazard rollback re-converges onto a visited state.
  /// Sound up to 64-bit fingerprint collisions (a collision would skip a
  /// never-visited subtree; tests/SeenStateTest.cpp keeps the suite
  /// corpus empirically collision-free) and budget accounting: a pruned
  /// twin inherits the first visitor's per-schedule step budget, so a
  /// run that would truncate anyway may truncate at a different point —
  /// `Truncated` reports it either way.  On by default (it preserves the
  /// leak set everywhere tested and completes previously budget-truncated
  /// trees: mee-c in v4 mode falls from the 8.4M-step budget to ~115k
  /// steps, measured when pruning was added in commit 3024a65, and
  /// tests/EngineTest.cpp checks its leak keys at 4 and 8 threads); opt
  /// out with `--no-prune-seen` or `PruneSeen = false` when exploration
  /// statistics must match the unpruned engine exactly.
  bool PruneSeen = true;
  /// Export this run's seen-state table and its leaky-below subset in
  /// `ExploreResult::SeenExport` (sched/SeenStates.h).  Requires PruneSeen
  /// (claims are what gets exported; with pruning off the export is
  /// empty).  Costs a per-path claim trail — a persistent cons-list
  /// shared between a path and its forks, one node per claim — so it is
  /// opt-in for consumers that re-check a transformed twin of this
  /// program (engine/MitigationSession.h).
  bool ExportSeenStates = false;
  /// Cross-program reuse: drop frontier candidates (and cut hazard
  /// re-executions short) whose configuration is covered() by a prior
  /// exploration of a relocation-equivalent program — the diff-driven
  /// re-check behind mitigation validation.  The filter's PcRemap
  /// contract (see RemappedSeenFilter) is what keeps the leak set
  /// byte-identical with the filter on or off; `ReusePrunedNodes` counts
  /// what it saved.
  std::shared_ptr<const RemappedSeenFilter> Reuse;
  /// Collect ExploreStats (engages `ExploreResult::Stats`).  Off by
  /// default: the per-depth tallies cost a few atomics per fork, and the
  /// counters are a diagnosis tool (`sctcheck --stats`), not part of any
  /// verdict.
  bool CollectStats = false;
};

/// Diagnostic counters for one exploration (ExplorerOptions::CollectStats;
/// surfaced by `sctcheck --stats`).  Built to answer one question about a
/// budget-blown tree: is it hash-table pressure (long probe sequences),
/// missed recurrence detection (every fork insert is fresh), or a
/// genuinely exponential schedule tree (distinct-state growth per depth
/// keeps multiplying)?
struct ExploreStats {
  /// Seen-state table occupancy and probe lengths (sched/SeenStates.h).
  /// Probes / Lookups ≈ 1 means the flat table is healthy; growth here
  /// with a stable state count means table pressure, not tree growth.
  SeenTableStats Seen;
  /// Fork-filter verdicts: candidate nodes whose configuration was fresh
  /// (claimed and explored) vs. already claimed (pruned as duplicates).
  /// A near-zero duplicate share on a blown budget says the tree really
  /// is that big; a high share says pruning is working and the budget
  /// went to the fringe between duplicates.
  uint64_t ForkInsertNew = 0;
  uint64_t ForkInsertDup = 0;
  /// Hazard-rollback convergence probes (the tryStep pure query) and how
  /// many of them cut the path short.
  uint64_t ConvergenceChecks = 0;
  uint64_t ConvergencePrunes = 0;
  /// NewStatesPerDepth[d] counts fork-filter inserts of fresh states whose
  /// schedule prefix held d directives (bucketed by prefix length /
  /// DepthBucket).  A per-depth sequence that keeps multiplying by a
  /// constant factor is the signature of genuine exponential blowup;
  /// flat or shrinking tails mean recurrence pruning is containing it.
  static constexpr size_t DepthBucket = 64;
  std::vector<uint64_t> NewStatesPerDepth;
};

/// Program point responsible for a directive's observation in \p C, read
/// *before* stepping (a rollback may remove the entry): the executed
/// entry's origin, the retiring (oldest) entry's origin, or the current
/// fetch point.  The explorer, the witness minimizer, and the tests all
/// attribute leaks through this one helper so their `LeakRecord::key()`s
/// agree.
PC leakOriginOf(const Configuration &C, const Directive &D);

/// Whether fetching the conditional branch at `C.N` with guess "true" and
/// executing it at once would take the cond-execute-correct rule — the
/// explorer's per-branch-fetch prediction query.  nullopt while a
/// condition operand is unresolved.  Requires no fence in flight (the
/// explorer never fetches past one, and an execute behind it would
/// fail).  A pure query over \p C: it copies and steps nothing.
std::optional<bool> probeBranchCorrect(const Machine &M,
                                       const Configuration &C);

/// One secret-labelled observation with its replayable witness schedule.
struct LeakRecord {
  Schedule Sched;    ///< Directives up to and including the leaking step.
  Observation Obs;   ///< The secret-labelled observation.
  PC Origin;         ///< Program point of the leaking instruction.
  RuleId Rule;       ///< Rule that produced the observation.
  /// Minimized witness: empty unless witness minimization ran
  /// (engine/WitnessMinimizer.h, requested via
  /// CheckRequest::MinimizeWitnesses).  When set, it replays from the
  /// same initial configuration to an observation with the identical
  /// key(), in far fewer directives than the raw exploration prefix.
  Schedule MinSched;
  /// The checkpoint chain of the path that recorded this leak (null
  /// unless the exploration ran under SnapshotPolicy::Hybrid with
  /// `ExplorerOptions::RecordCheckpointChain` — a pinned checkpoint
  /// lives as long as this record, so it is only kept when a consumer
  /// asked for it).  Each rung's `Len`-prefix of `Sched` replays Init to
  /// exactly its `Config`; the `Prev` links reach every earlier rung of
  /// the path — the minimizer's mid-schedule replay seeds.
  std::shared_ptr<const Checkpoint> Ckpt;

  /// Key used to deduplicate leaks across schedules: a 64-bit hash-combine
  /// over (origin, observation kind, rule, taint mask).  Each field is
  /// avalanched through a splitmix64 finalizer (support/Hashing.h) before
  /// combining, so fields that overlap 8-bit boundaries (large Origin
  /// values, wide taint masks) cannot cancel the way the old shifted-XOR
  /// packing allowed.
  uint64_t key() const {
    return hashFields({uint64_t(Origin), uint64_t(Obs.K), uint64_t(Rule),
                       Obs.Payload.Taint.mask()});
  }
};

/// Result of an exploration.
struct ExploreResult {
  /// Unique leaks (deduplicated by origin/kind/rule/taint).
  std::vector<LeakRecord> Leaks;
  /// Total secret observations seen, including duplicates.
  uint64_t LeakEvents = 0;
  /// Number of complete schedules driven to a final configuration.
  uint64_t SchedulesCompleted = 0;
  uint64_t TotalSteps = 0;
  /// Frontier candidates dropped by the seen-state table (PruneSeen):
  /// forks and continuations whose configuration was already visited,
  /// plus hazard re-executions cut short at a visited state.
  uint64_t PrunedNodes = 0;
  /// Successful steal operations between frontier shards (Threads > 1
  /// with work-stealing; each may move many nodes at once).
  uint64_t Steals = 0;
  /// Directives re-executed while materializing frontier nodes under
  /// Hybrid snapshots.  Replayed steps never touch budgets, leak
  /// recording, or TotalSteps — they re-derive state already accounted.
  uint64_t ReplaySteps = 0;
  /// Full-configuration checkpoints published by the Hybrid policy (its
  /// frontier-memory proxy).
  uint64_t Checkpoints = 0;
  /// Frontier candidates dropped (and hazard re-executions cut short)
  /// because a prior exploration's exported table covered them
  /// (`ExplorerOptions::Reuse`).
  uint64_t ReusePrunedNodes = 0;
  /// Schedule-tree forks: how many configurations were copied at fork
  /// sites, the reorder-buffer bytes those copies actually moved
  /// (chunk references plus the private tail, under the structurally
  /// shared chunked layout), and what the same copies would have cost
  /// under a flat per-entry slab.  Flat / Copied is the sharing factor
  /// `sctcheck --stats` reports; always collected (three relaxed adds
  /// per fork), unlike the CollectStats-gated tallies.
  uint64_t ConfigsForked = 0;
  uint64_t RobBytesCopied = 0;
  uint64_t RobBytesFlat = 0;
  /// This run's claimed states and their leaky-below subset; engaged iff
  /// `ExplorerOptions::ExportSeenStates`.  Feed it to a
  /// RemappedSeenFilter to reuse this exploration when re-checking a
  /// relocated twin of the program.
  std::shared_ptr<const SeenStateExport> SeenExport;
  /// Diagnostic counters; engaged iff `ExplorerOptions::CollectStats`.
  std::optional<ExploreStats> Stats;
  /// True iff some budget was exhausted (exploration incomplete).
  bool Truncated = false;

  bool secure() const { return Leaks.empty(); }
};

/// Explores the worst-case schedules of \p M from \p Init.
ExploreResult explore(const Machine &M, Configuration Init,
                      const ExplorerOptions &Opts);

} // namespace sct

#endif // SCT_SCHED_SCHEDULEEXPLORER_H
