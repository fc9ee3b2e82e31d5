//===- FleetProtocol.h - Coordinator/worker JSONL control channel -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control channel between the fleet coordinator and charon_worker
/// processes: one JSON object per line over the worker's stdin/stdout,
/// reusing the service protocol's JSON subset (support/JsonLine.h). The
/// unit of work is a serialized SearchCheckpoint shard — a contiguous,
/// DFS-ordered run of an open proof-search frontier — so a "whole job" is
/// simply a shard whose frontier is the root node.
///
/// Commands (coordinator -> worker):
/// \code
///   {"cmd":"load","fingerprint":"<u64>","network":"<.net text>"}
///   {"cmd":"run","shard":7,"fingerprint":"<u64>","label":3,
///    "lower":[...],"upper":[...],"delta":1e-6,"budget":10,"maxdepth":400,
///    "pgd_steps":25,"pgd_restarts":2,"pgd_step_scale":0.3,
///    "optimizer":"pgd","use_cex_search":true,"seed":"7","order":"lifo",
///    "checkpoint":"<checkpoint text>"}
///   {"cmd":"cancel","shard":7}
///   {"cmd":"ping"}   {"cmd":"quit"}
/// \endcode
///
/// Events (worker -> coordinator):
/// \code
///   {"event":"ready"}   {"event":"pong"}
///   {"event":"loaded","fingerprint":"<u64>"}
///   {"event":"done","shard":7,"outcome":"falsified","cex":[...],
///    "objective":-0.01,"stats":[...9 numbers...],"expanded_here":42,
///    "checkpoint":""}
///   {"event":"error","message":"..."}
/// \endcode
///
/// 64-bit digests ride as decimal strings (a double cannot hold them).
/// The run command carries every semantic VerifierConfig field the digest
/// covers; the worker rebuilds the config with configFromRunSpec and then
/// *checks* the shard checkpoint's digests against its reconstruction —
/// a mismatch is a protocol error event, never a silent fresh search.
/// A malformed command line likewise yields an error event and the worker
/// keeps serving (mirrors the batch-service rule that one bad line must
/// not abort the stream).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FLEET_FLEETPROTOCOL_H
#define CHARON_FLEET_FLEETPROTOCOL_H

#include "core/Verifier.h"

#include <optional>
#include <string>
#include <vector>

namespace charon {
struct RobustnessProperty;

/// Everything a worker needs to run one shard.
struct RunSpec {
  uint64_t Shard = 0;
  uint64_t Fingerprint = 0; ///< network to run against (must be loaded)
  size_t Label = 0;
  std::vector<double> Lower, Upper; ///< property region
  double Delta = 1e-6;
  double BudgetSeconds = -1.0;
  int MaxDepth = 400;
  int PgdSteps = 25;
  int PgdRestarts = 2;
  double PgdStepScale = 0.3;
  std::string Optimizer = "pgd";   ///< "pgd" | "fgsm"
  bool UseCexSearch = true;
  uint64_t Seed = 7;
  std::string Order = "lifo";      ///< "lifo" | "best-first"
  std::string CheckpointText;      ///< the shard frontier
};

/// One parsed command line.
struct FleetCommand {
  enum class Kind { Load, Run, Cancel, Ping, Quit } K = Kind::Ping;
  uint64_t Fingerprint = 0;  ///< Load
  std::string NetworkText;   ///< Load
  RunSpec Run;               ///< Run
  uint64_t CancelShard = 0;  ///< Cancel
};

/// One parsed event line.
struct FleetEvent {
  enum class Kind { Ready, Loaded, Done, Pong, Error } K = Kind::Ready;
  uint64_t Fingerprint = 0;    ///< Loaded
  uint64_t Shard = 0;          ///< Done
  std::string Outcome;         ///< Done: "verified" | "falsified" | "timeout"
  std::vector<double> Cex;     ///< Done (falsified)
  double Objective = 0.0;      ///< Done (falsified)
  VerifyStats Stats;           ///< Done: the run's cumulative stats
  long ExpandedHere = 0;       ///< Done: nodes expanded by *this* worker
  std::string CheckpointText;  ///< Done (timeout): remaining frontier
  std::string Message;         ///< Error
};

/// Command formatters (one line, no trailing newline).
std::string formatLoadCommand(uint64_t Fingerprint,
                              const std::string &NetworkText);
std::string formatRunCommand(const RunSpec &Spec);
std::string formatCancelCommand(uint64_t Shard);
std::string formatPingCommand();
std::string formatQuitCommand();

/// Event formatters.
std::string formatReadyEvent();
std::string formatPongEvent();
std::string formatLoadedEvent(uint64_t Fingerprint);
std::string formatDoneEvent(const FleetEvent &Ev);
std::string formatErrorEvent(const std::string &Message);

/// Parsers (inverse of the formatters); nullopt with a reason on any
/// malformed line.
std::optional<FleetCommand> parseCommandLine(const std::string &Line,
                                             std::string *Error = nullptr);
std::optional<FleetEvent> parseEventLine(const std::string &Line,
                                         std::string *Error = nullptr);

/// Rebuilds the verifier config a RunSpec describes (budget and depth cap
/// included; Trace/CancelRequested/CompleteFallback hooks are left empty —
/// they are process-local). Shared by the worker (to run the shard) and
/// the coordinator (to prove, via digest comparison, that a job's config
/// survives the wire round-trip before sharding it).
VerifierConfig configFromRunSpec(const RunSpec &Spec);

/// Projects a job onto the wire fields (the inverse of configFromRunSpec;
/// Shard and CheckpointText are left for the caller).
RunSpec runSpecFromJob(const VerifierConfig &Config,
                       const RobustnessProperty &Prop, uint64_t Fingerprint);

/// True when \p Config survives the wire round-trip: no process-local
/// hooks the protocol cannot carry (trace sink, complete-fallback
/// callback) and a semantics digest unchanged by
/// runSpecFromJob ∘ configFromRunSpec. Non-transportable jobs run inline
/// in the coordinator instead — slower, never wrong.
bool configTransportable(const VerifierConfig &Config);

} // namespace charon

#endif // CHARON_FLEET_FLEETPROTOCOL_H
