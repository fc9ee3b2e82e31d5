//===- RequestIo.h - JSON-lines batch request/response protocol ---*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the verification service: one JSON object per line,
/// requests in, responses out, so whole suites are driven from files or
/// pipes instead of hardcoded benches.
///
/// Request line (flat object; center+epsilon and lower/upper are the two
/// ways to give the region, exactly one required):
/// \code
///   {"network":"acas.net","name":"p3","label":0,"epsilon":0.05,
///    "center":[0.5,0.5,0.5,0.5,0.5],"budget":10,"delta":1e-6,"priority":1}
///   {"network":"acas.net","label":2,"lower":[0,0,0,0,0],"upper":[1,1,1,1,1]}
/// \endcode
///
/// Response line:
/// \code
///   {"name":"p3","network":"acas.net","outcome":"verified","seconds":0.41,
///    "cache_hit":false,"cancelled":false,"counterexample":[]}
/// \endcode
///
/// The parser accepts only this subset of JSON (flat objects of strings,
/// numbers, booleans, and arrays of numbers) and rejects everything else
/// with a diagnostic; unknown keys are an error so typos fail loudly.
/// "label" and "priority" must be whole numbers in int range, the label
/// non-negative. "budget" (seconds) and "delta" must be above 0: a job
/// needs time to run, and delta > 0 is what makes its search terminate
/// (Theorem 5.2). Every number must be a finite decimal.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SERVICE_REQUESTIO_H
#define CHARON_SERVICE_REQUESTIO_H

#include "core/Property.h"
#include "core/Verifier.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace charon {

/// One parsed request line.
struct ServiceRequest {
  std::string Network;      ///< path of the serialized network
  std::string Name;         ///< optional job name echoed in the response
  size_t Label = 0;         ///< target class K
  double Epsilon = -1.0;    ///< L-inf radius (with Center); < 0 when unset
  Vector Center;            ///< ball center (with Epsilon)
  Vector Lower, Upper;      ///< explicit box bounds (alternative form)
  double BudgetSeconds = 10.0;
  double Delta = 1e-6;
  int Priority = 0;
};

/// One response line. A non-empty Error marks a per-line failure response
/// (malformed request, missing network, bad region): the line produced no
/// verdict, the batch carried on, and the "error" key says why.
struct ServiceResponse {
  std::string Name;
  std::string Network;
  Outcome Result = Outcome::Timeout;
  bool CacheHit = false;
  bool Cancelled = false;
  double Seconds = 0.0;
  Vector Counterexample; ///< empty unless Falsified
  std::string Error;     ///< empty on success
};

/// Parses one request line. On failure returns nullopt and, when \p Error
/// is non-null, stores a human-readable reason.
std::optional<ServiceRequest> parseRequestLine(const std::string &Line,
                                               std::string *Error = nullptr);

/// Serializes a request to one JSON line (no trailing newline).
std::string formatRequestLine(const ServiceRequest &Req);

/// Builds the robustness property a request describes: the explicit box,
/// or the epsilon-ball around the center clipped to [0,1]. Returns nullopt
/// when the region specification is missing or inconsistent.
std::optional<RobustnessProperty> requestProperty(const ServiceRequest &Req);

/// Serializes a response to one JSON line (no trailing newline). Doubles
/// are printed with round-trip precision so counterexamples survive
/// re-parsing bit-exactly.
std::string formatResponseLine(const ServiceResponse &Resp);

/// Parses one response line (the inverse of formatResponseLine).
std::optional<ServiceResponse> parseResponseLine(const std::string &Line,
                                                 std::string *Error = nullptr);

/// One line of a parsed batch: either a request or the reason it was
/// rejected. LineNo is 1-based over the raw input (blank lines count but
/// produce no entry).
struct BatchLine {
  int LineNo = 0;
  std::optional<ServiceRequest> Request; ///< nullopt when the line is bad
  std::string Error;                     ///< set iff Request is nullopt
};

/// Parses a whole JSONL batch. A malformed line yields an entry with Error
/// set and parsing continues with the next line — one bad request never
/// aborts the batch. Blank lines are skipped.
std::vector<BatchLine> parseRequestBatch(std::istream &Is);

} // namespace charon

#endif // CHARON_SERVICE_REQUESTIO_H
