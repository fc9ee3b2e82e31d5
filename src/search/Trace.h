//===- Trace.h - Structured proof-search trace events ------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node observability for the proof-search engine: every node
/// expansion can emit one structured event through an optional sink in
/// VerifierConfig. The JSONL renderer writes one JSON object per line
/// (schema charon-trace/1):
///
/// \code
///   {"path":"01","depth":2,"diameter":0.125,"pgd_objective":0.031,
///    "domain":"Zonotope","disjuncts":1,"margin":-0.004,
///    "outcome":"split","seconds":0.0021}
/// \endcode
///
/// `path` is the node's split bits from the root ("-" for the root);
/// `outcome` is one of "falsified", "verified", "split", "aborted"
/// (deadline hit mid-expansion; the node stays open and re-expands on
/// resume). `domain`/`disjuncts` appear once pi_alpha ran, `margin` once
/// the abstract analysis completed; both are omitted otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SEARCH_TRACE_H
#define CHARON_SEARCH_TRACE_H

#include "abstract/Analyzer.h"

#include <functional>
#include <iosfwd>
#include <string>

namespace charon {

/// One trace event: a node expansion.
struct TraceEvent {
  std::string Path;          ///< split bits from the root; "-" for the root
  int Depth = 0;             ///< refinement depth of the node
  double Diameter = 0.0;     ///< L2 diameter of the node's region
  double PgdObjective = 0.0; ///< F(x*) found by this node's search
  bool DomainChosen = false; ///< pi_alpha ran (Domain/Disjuncts valid)
  DomainSpec Domain;         ///< the chosen abstract domain
  bool MarginKnown = false;  ///< the abstract analysis completed
  double Margin = 0.0;       ///< its robustness margin
  const char *Outcome = "";  ///< "falsified" | "verified" | "split" |
                             ///< "aborted"
  double Seconds = 0.0;      ///< wall-clock cost of this expansion
};

/// Expansion-event callback. Installed via VerifierConfig::Trace; may be
/// invoked concurrently from several worker threads, so sinks must be
/// thread-safe (makeJsonlTraceSink already is).
using TraceSink = std::function<void(const TraceEvent &)>;

/// Renders \p Event as one JSON object (no trailing newline).
std::string traceEventToJson(const TraceEvent &Event);

/// A thread-safe sink appending one JSON line per event to \p Os, which
/// must outlive the returned sink.
TraceSink makeJsonlTraceSink(std::ostream &Os);

} // namespace charon

#endif // CHARON_SEARCH_TRACE_H
