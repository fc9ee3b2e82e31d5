//===- Checkpoint.h - Resumable proof-search checkpoints ---------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, serializable snapshot of an interrupted proof search: the
/// open frontier (each open node's split path, region, warm-start witness,
/// and priority) plus a summary of the verified subtree (the accumulated
/// stats). Node expansions are committed atomically — a node whose
/// analysis a deadline aborted stays open — so resuming a checkpoint
/// expands exactly the nodes the uninterrupted run would have expanded,
/// and the final verdict, counterexample, objective, and stats (modulo
/// wall-clock seconds) are bit-identical to never having been interrupted.
///
/// The text format round-trips byte-identically (serialize-deserialize-
/// serialize is the identity): doubles are printed with 17 significant
/// digits, open nodes in DFS order. Three digests guard against resuming
/// a checkpoint on the wrong query: the network fingerprint, the property
/// digest, and the budget-free config digest (the wall-clock budget is
/// excluded deliberately — resuming with a fresh or larger budget is the
/// point).
///
/// \code
///   charon-checkpoint 1
///   order lifo
///   network <u64> property <u64> config <u64>
///   stats <8 counters> <seconds>
///   dim <n>
///   open <count>
///   node <path> <priority>
///   lower <n values>
///   upper <n values>
///   warm <m> [<m values>]
///   ...
///   end
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SEARCH_CHECKPOINT_H
#define CHARON_SEARCH_CHECKPOINT_H

#include "core/Verifier.h"
#include "linalg/Box.h"
#include "search/Frontier.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace charon {

/// One open node of an interrupted search.
struct CheckpointNode {
  std::vector<uint8_t> Path; ///< split bits from the root (empty = root)
  Box Region;
  Vector Warm;               ///< warm-start witness (may be empty)
  double Priority = 0.0;     ///< parent's PGD objective
};

/// Snapshot of an interrupted proof search.
struct SearchCheckpoint {
  FrontierOrder Order = FrontierOrder::Lifo;
  uint64_t NetworkFingerprint = 0;
  uint64_t PropertyDigest = 0;
  /// digestVerifierConfigSemantics() of the interrupted run's config.
  uint64_t ConfigDigest = 0;
  /// Stats accumulated over every committed expansion so far. Seconds is
  /// the wall-clock already spent (resumed runs keep adding to it).
  VerifyStats Stats;
  /// Open nodes in DFS order (the order the sequential driver would
  /// expand them).
  std::vector<CheckpointNode> Open;
};

/// Writes \p Cp to \p Os in the documented text format.
void saveCheckpoint(const SearchCheckpoint &Cp, std::ostream &Os);

/// Renders \p Cp as a string (the byte-identity canonical form).
std::string serializeCheckpoint(const SearchCheckpoint &Cp);

/// Parses a checkpoint from the rest of \p Is; nullopt on malformed input
/// (bad magic or keywords, non-numeric values, inverted bounds, duplicate
/// node paths, truncation, a dim or open count larger than the text left).
std::optional<SearchCheckpoint> loadCheckpoint(std::istream &Is);

/// Parses a checkpoint from the canonical string form.
std::optional<SearchCheckpoint> deserializeCheckpoint(const std::string &Text);

/// File-path convenience wrappers.
bool saveCheckpointFile(const SearchCheckpoint &Cp, const std::string &Path);
std::optional<SearchCheckpoint> loadCheckpointFile(const std::string &Path);

} // namespace charon

#endif // CHARON_SEARCH_CHECKPOINT_H
