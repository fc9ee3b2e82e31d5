//===- FleetCoordinator.h - Multi-process sharded proof search ----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scales one verification job across worker *processes*: the coordinator
/// dispatches SearchCheckpoint shards (contiguous, DFS-ordered runs of an
/// open frontier) to a fleet of fork/exec'd charon_worker children over
/// the JSONL control channel (FleetProtocol.h), steals work from loaded
/// workers for idle ones, and survives worker crashes by requeueing the
/// dead worker's outstanding shard.
///
/// Why the verdict stays bit-identical to the serial Verifier::verify:
///
///  1. A job enters the fleet as a single root shard — the whole search is
///     one unit of work, so "dispatch a whole job" and "dispatch a subtree
///     shard" are the same operation.
///  2. Work-stealing always moves *checkpoint suffixes*: a yielded worker
///     checkpoints its frontier (node expansions commit atomically, so an
///     aborted in-flight node stays open and is re-expanded identically),
///     and the coordinator re-splits that frontier into contiguous DFS
///     runs. Since no open node is an ancestor of another, every
///     descendant of shard i precedes every descendant of shard i+1 in
///     DFS order — shards are totally DFS-ordered at all times.
///  3. Node expansion is a pure function of (network, policy, config, node
///     path, region, warm witness) with path-derived RNG seeds, so every
///     shard computes exactly what the serial run would compute for those
///     subtrees, regardless of which worker runs it or how often a crash
///     forces a replay.
///  4. Verdict selection mirrors the engine's DFS-earliest confirmation
///     rule at the shard level: a falsified shard only wins once every
///     DFS-earlier shard has finished without falsifying (DFS-later
///     shards are cancelled — they can only find DFS-later witnesses);
///     within a shard the engine already returns the DFS-earliest
///     falsification. Verified requires all shards verified. A
///     falsification always beats a Timeout, matching the serial engine's
///     interrupted-run rule.
///
/// Stats are the one deliberate difference on falsified runs: DFS-later
/// shards run speculatively and their (cancelled) work is still counted,
/// so counters can exceed the serial run's. Verdict, counterexample, and
/// objective are bit-identical; on clean Verified runs the summed
/// counters match the serial run too (same node set, modulo Seconds).
///
/// Jobs whose config carries process-local hooks (trace sink, complete-
/// fallback callback) cannot cross the wire; they run inline in the
/// coordinator — slower, never wrong — and count as InlineFallbacks.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FLEET_FLEETCOORDINATOR_H
#define CHARON_FLEET_FLEETCOORDINATOR_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "fleet/FleetProtocol.h"
#include "fleet/WorkerProcess.h"
#include "search/Checkpoint.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace charon {
class Network;

/// Fleet tuning knobs.
struct FleetConfig {
  /// Path of the charon_worker binary (execvp semantics: a bare name
  /// searches PATH). Empty disables process dispatch — every job runs
  /// inline.
  std::string WorkerBinary;
  /// Worker processes to keep alive. 0 behaves like an empty WorkerBinary.
  unsigned Workers = 2;
  /// Policy file forwarded to workers (--policy). Must match the policy
  /// the coordinator was built with, or worker expansions would diverge
  /// from serial runs; empty means both sides use the built-in default.
  std::string PolicyPath;
  /// A worker must have run its shard this long before it can be yielded
  /// for stealing; failed steals back off by 4x this.
  double StealAfterSeconds = 0.05;
  /// Disable to measure pure static sharding.
  bool EnableStealing = true;
  /// Grace given to workers between "quit" and SIGKILL at shutdown.
  double ShutdownGraceSeconds = 2.0;
  /// Test hook: once total dispatches exceed this count, SIGKILL the
  /// worker that received the latest dispatch (exactly once). Negative
  /// disables. Exercises the crash-requeue path deterministically.
  int ChaosKillAfterDispatches = -1;
};

/// Cumulative coordinator counters (monotone over the fleet's lifetime).
struct FleetStats {
  long Jobs = 0;             ///< verify() calls accepted
  long ShardsDispatched = 0; ///< run commands sent (requeues included)
  long Steals = 0;           ///< shards migrated off a yielded worker
  long WorkerRestarts = 0;   ///< dead workers detected and replaced
  long InlineFallbacks = 0;  ///< jobs run in-process (non-transportable
                             ///< config or no workers available)
};

/// Per-job accounting, filled when verify() is given a report pointer.
struct FleetJobReport {
  long Shards = 0;   ///< dispatches for this job
  long Steals = 0;   ///< successful steals while this job ran
  long Restarts = 0; ///< worker deaths while this job's shards ran
  bool Inline = false;
  std::vector<long> PerWorkerExpanded; ///< nodes expanded, by worker slot
};

/// The fleet: owns the worker processes and a background event loop.
/// Thread-safe; concurrent verify() calls share the worker pool (the
/// service layer funnels whole jobs and their shards through one fleet).
class FleetCoordinator {
public:
  FleetCoordinator(VerificationPolicy Policy, FleetConfig Config);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator &) = delete;
  FleetCoordinator &operator=(const FleetCoordinator &) = delete;

  /// Decides \p Prop on \p Net across the fleet. Blocking; bit-identical
  /// verdict/counterexample/objective to Verifier(Net, policy,
  /// Config).verify(Prop, Resume). Config.CancelRequested is polled by
  /// the coordinator and fanned out to workers as shard cancels.
  VerifyResult verify(const Network &Net, const RobustnessProperty &Prop,
                      const VerifierConfig &Config,
                      const SearchCheckpoint *Resume = nullptr,
                      FleetJobReport *Report = nullptr);

  FleetStats stats() const;
  unsigned workers() const { return Config.Workers; }

private:
  struct Shard;
  struct JobRec;
  struct Slot;

  void loop();
  void wake();
  double now() const;

  // Everything below runs on the loop thread with Mutex held.
  void handleWorkerLines(size_t SlotIdx);
  void handleEvent(size_t SlotIdx, const FleetEvent &Ev);
  void handleWorkerDeath(size_t SlotIdx);
  void dispatchShards();
  void maybeSteal();
  void pollJobStops();
  void resolveAsRemnant(JobRec &J, Shard &&S);
  void pruneLaterShards(JobRec &J);
  void requeueFront(Shard &&S);
  void maybeFinish(JobRec &J);
  bool runShardInline(Shard &&S);
  JobRec *findJob(uint64_t Id);

  VerificationPolicy Policy;
  FleetConfig Config;

  mutable std::mutex Mutex;
  std::condition_variable JobCv;
  std::vector<std::unique_ptr<Slot>> Slots;
  std::deque<Shard> Queue; ///< shards awaiting a worker
  std::vector<std::unique_ptr<JobRec>> Jobs;
  FleetStats Counters;
  uint64_t NextJobId = 1;
  uint64_t NextShardId = 1;
  bool ChaosFired = false;
  long TotalDispatches = 0;

  std::chrono::steady_clock::time_point Start;
  int WakePipe[2] = {-1, -1};
  std::thread LoopThread;
  bool Stopping = false;
};

} // namespace charon

#endif // CHARON_FLEET_FLEETCOORDINATOR_H
