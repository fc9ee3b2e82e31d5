//===- RequestIo.cpp - JSON-lines batch request/response protocol -------------===//

#include "service/RequestIo.h"

#include "linalg/Box.h"
#include "support/JsonLine.h"

#include <cmath>
#include <istream>
#include <limits>

using namespace charon;
using json::appendEscaped;
using json::appendNumber;
using json::Value;

namespace {

void appendArray(std::string &Out, const Vector &V) {
  Out.push_back('[');
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out.push_back(',');
    appendNumber(Out, V[I]);
  }
  Out.push_back(']');
}

bool setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

Vector toVector(const std::vector<double> &A) {
  return Vector(std::vector<double>(A));
}

/// True when \p X is a whole number from \p Lo to INT_MAX, so the cast to
/// the int or size_t field it fills is defined and exact.
bool wholeInIntRange(double X, double Lo) {
  return X >= Lo && X <= std::numeric_limits<int>::max() && X == std::trunc(X);
}

} // namespace

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::optional<ServiceRequest>
charon::parseRequestLine(const std::string &Line, std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;

  ServiceRequest Req;
  for (const auto &[Key, V] : Obj) {
    if (Key == "network" && V.K == Value::Str)
      Req.Network = V.S;
    else if (Key == "name" && V.K == Value::Str)
      Req.Name = V.S;
    else if (Key == "label" && V.K == Value::Num) {
      if (!wholeInIntRange(V.N, 0)) {
        setError(Error, "\"label\" must be a whole number from 0 to "
                        "2147483647");
        return std::nullopt;
      }
      Req.Label = static_cast<size_t>(V.N);
    } else if (Key == "epsilon" && V.K == Value::Num)
      Req.Epsilon = V.N;
    else if (Key == "center" && V.K == Value::NumArray)
      Req.Center = toVector(V.A);
    else if (Key == "lower" && V.K == Value::NumArray)
      Req.Lower = toVector(V.A);
    else if (Key == "upper" && V.K == Value::NumArray)
      Req.Upper = toVector(V.A);
    else if ((Key == "budget" || Key == "delta") && V.K == Value::Num) {
      // A job needs time to run, and delta > 0 is what makes its search
      // terminate (Theorem 5.2).
      if (!(V.N > 0.0)) {
        setError(Error, "\"" + Key + "\" must be above 0");
        return std::nullopt;
      }
      (Key == "budget" ? Req.BudgetSeconds : Req.Delta) = V.N;
    } else if (Key == "priority" && V.K == Value::Num) {
      if (!wholeInIntRange(V.N, std::numeric_limits<int>::min())) {
        setError(Error, "\"priority\" must be a whole number from "
                        "-2147483648 to 2147483647");
        return std::nullopt;
      }
      Req.Priority = static_cast<int>(V.N);
    } else {
      setError(Error, "unknown or mistyped key: " + Key);
      return std::nullopt;
    }
  }
  if (Req.Network.empty()) {
    setError(Error, "missing \"network\"");
    return std::nullopt;
  }
  bool HasBall = Req.Epsilon >= 0.0 && !Req.Center.empty();
  bool HasBox = !Req.Lower.empty() || !Req.Upper.empty();
  if (HasBall == HasBox) {
    setError(Error, "give exactly one of center+epsilon or lower+upper");
    return std::nullopt;
  }
  if (HasBox && Req.Lower.size() != Req.Upper.size()) {
    setError(Error, "lower/upper length mismatch");
    return std::nullopt;
  }
  return Req;
}

std::string charon::formatRequestLine(const ServiceRequest &Req) {
  std::string Out = "{\"network\":";
  appendEscaped(Out, Req.Network);
  if (!Req.Name.empty()) {
    Out += ",\"name\":";
    appendEscaped(Out, Req.Name);
  }
  Out += ",\"label\":";
  appendNumber(Out, static_cast<double>(Req.Label));
  if (Req.Epsilon >= 0.0 && !Req.Center.empty()) {
    Out += ",\"epsilon\":";
    appendNumber(Out, Req.Epsilon);
    Out += ",\"center\":";
    appendArray(Out, Req.Center);
  } else {
    Out += ",\"lower\":";
    appendArray(Out, Req.Lower);
    Out += ",\"upper\":";
    appendArray(Out, Req.Upper);
  }
  Out += ",\"budget\":";
  appendNumber(Out, Req.BudgetSeconds);
  Out += ",\"delta\":";
  appendNumber(Out, Req.Delta);
  Out += ",\"priority\":";
  appendNumber(Out, Req.Priority);
  Out.push_back('}');
  return Out;
}

std::optional<RobustnessProperty>
charon::requestProperty(const ServiceRequest &Req) {
  RobustnessProperty Prop;
  Prop.TargetClass = Req.Label;
  Prop.Name = Req.Name.empty() ? Req.Network : Req.Name;
  if (Req.Epsilon >= 0.0 && !Req.Center.empty()) {
    Prop.Region = Box::linfBall(Req.Center, Req.Epsilon, 0.0, 1.0);
    return Prop;
  }
  if (Req.Lower.empty() || Req.Lower.size() != Req.Upper.size())
    return std::nullopt;
  for (size_t I = 0; I < Req.Lower.size(); ++I)
    if (Req.Lower[I] > Req.Upper[I])
      return std::nullopt;
  Prop.Region = Box(Req.Lower, Req.Upper);
  return Prop;
}

std::vector<BatchLine> charon::parseRequestBatch(std::istream &Is) {
  std::vector<BatchLine> Out;
  std::string Line;
  int LineNo = 0;
  while (std::getline(Is, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    BatchLine Entry;
    Entry.LineNo = LineNo;
    std::string Error;
    Entry.Request = parseRequestLine(Line, &Error);
    if (!Entry.Request)
      Entry.Error = Error.empty() ? "malformed request" : Error;
    Out.push_back(std::move(Entry));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

std::string charon::formatResponseLine(const ServiceResponse &Resp) {
  std::string Out = "{\"name\":";
  appendEscaped(Out, Resp.Name);
  Out += ",\"network\":";
  appendEscaped(Out, Resp.Network);
  Out += ",\"outcome\":";
  appendEscaped(Out, toString(Resp.Result));
  Out += ",\"seconds\":";
  appendNumber(Out, Resp.Seconds);
  Out += ",\"cache_hit\":";
  Out += Resp.CacheHit ? "true" : "false";
  Out += ",\"cancelled\":";
  Out += Resp.Cancelled ? "true" : "false";
  Out += ",\"counterexample\":";
  appendArray(Out, Resp.Counterexample);
  if (!Resp.Error.empty()) {
    Out += ",\"error\":";
    appendEscaped(Out, Resp.Error);
  }
  Out.push_back('}');
  return Out;
}

std::optional<ServiceResponse>
charon::parseResponseLine(const std::string &Line, std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;

  ServiceResponse Resp;
  for (const auto &[Key, V] : Obj) {
    if (Key == "name" && V.K == Value::Str)
      Resp.Name = V.S;
    else if (Key == "network" && V.K == Value::Str)
      Resp.Network = V.S;
    else if (Key == "outcome" && V.K == Value::Str) {
      if (V.S == "verified")
        Resp.Result = Outcome::Verified;
      else if (V.S == "falsified")
        Resp.Result = Outcome::Falsified;
      else if (V.S == "timeout")
        Resp.Result = Outcome::Timeout;
      else {
        setError(Error, "unknown outcome: " + V.S);
        return std::nullopt;
      }
    } else if (Key == "seconds" && V.K == Value::Num)
      Resp.Seconds = V.N;
    else if (Key == "cache_hit" && V.K == Value::Bool)
      Resp.CacheHit = V.B;
    else if (Key == "cancelled" && V.K == Value::Bool)
      Resp.Cancelled = V.B;
    else if (Key == "counterexample" && V.K == Value::NumArray)
      Resp.Counterexample = toVector(V.A);
    else if (Key == "error" && V.K == Value::Str)
      Resp.Error = V.S;
    else {
      setError(Error, "unknown or mistyped key: " + Key);
      return std::nullopt;
    }
  }
  return Resp;
}
