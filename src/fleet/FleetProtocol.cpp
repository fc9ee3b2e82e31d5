//===- FleetProtocol.cpp - Coordinator/worker JSONL control channel -----------===//

#include "fleet/FleetProtocol.h"

#include "core/Digest.h"
#include "core/Property.h"
#include "support/JsonLine.h"

using namespace charon;
using json::appendEscaped;
using json::appendNumber;
using json::appendNumberArray;
using json::formatU64;
using json::parseU64;
using json::Value;

namespace {

bool setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

void appendStats(std::string &Out, const VerifyStats &S) {
  std::vector<double> A = {
      static_cast<double>(S.PgdCalls),
      static_cast<double>(S.AnalyzeCalls),
      static_cast<double>(S.Splits),
      static_cast<double>(S.MaxDepth),
      static_cast<double>(S.IntervalChoices),
      static_cast<double>(S.ZonotopeChoices),
      static_cast<double>(S.DisjunctSum),
      static_cast<double>(S.NodesExpanded),
      static_cast<double>(S.CegarRounds),
      static_cast<double>(S.CegarSpuriousCexes),
      static_cast<double>(S.CegarFallbacks),
      static_cast<double>(S.CegarAbstractNeurons),
      S.Seconds};
  appendNumberArray(Out, A);
}

bool statsFromArray(const std::vector<double> &A, VerifyStats &S) {
  if (A.size() != 13)
    return false;
  S.PgdCalls = static_cast<long>(A[0]);
  S.AnalyzeCalls = static_cast<long>(A[1]);
  S.Splits = static_cast<long>(A[2]);
  S.MaxDepth = static_cast<long>(A[3]);
  S.IntervalChoices = static_cast<long>(A[4]);
  S.ZonotopeChoices = static_cast<long>(A[5]);
  S.DisjunctSum = static_cast<long>(A[6]);
  S.NodesExpanded = static_cast<long>(A[7]);
  S.CegarRounds = static_cast<long>(A[8]);
  S.CegarSpuriousCexes = static_cast<long>(A[9]);
  S.CegarFallbacks = static_cast<long>(A[10]);
  S.CegarAbstractNeurons = static_cast<long>(A[11]);
  S.Seconds = A[12];
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Command formatting
//===----------------------------------------------------------------------===//

std::string charon::formatLoadCommand(uint64_t Fingerprint,
                                      const std::string &NetworkText) {
  std::string Out = "{\"cmd\":\"load\",\"fingerprint\":";
  appendEscaped(Out, formatU64(Fingerprint));
  Out += ",\"network\":";
  appendEscaped(Out, NetworkText);
  Out.push_back('}');
  return Out;
}

std::string charon::formatRunCommand(const RunSpec &Spec) {
  std::string Out = "{\"cmd\":\"run\",\"shard\":";
  appendNumber(Out, static_cast<double>(Spec.Shard));
  Out += ",\"fingerprint\":";
  appendEscaped(Out, formatU64(Spec.Fingerprint));
  Out += ",\"label\":";
  appendNumber(Out, static_cast<double>(Spec.Label));
  Out += ",\"lower\":";
  appendNumberArray(Out, Spec.Lower);
  Out += ",\"upper\":";
  appendNumberArray(Out, Spec.Upper);
  Out += ",\"delta\":";
  appendNumber(Out, Spec.Delta);
  Out += ",\"budget\":";
  appendNumber(Out, Spec.BudgetSeconds);
  Out += ",\"maxdepth\":";
  appendNumber(Out, Spec.MaxDepth);
  Out += ",\"pgd_steps\":";
  appendNumber(Out, Spec.PgdSteps);
  Out += ",\"pgd_restarts\":";
  appendNumber(Out, Spec.PgdRestarts);
  Out += ",\"pgd_step_scale\":";
  appendNumber(Out, Spec.PgdStepScale);
  Out += ",\"optimizer\":";
  appendEscaped(Out, Spec.Optimizer);
  Out += ",\"use_cex_search\":";
  Out += Spec.UseCexSearch ? "true" : "false";
  Out += ",\"seed\":";
  appendEscaped(Out, formatU64(Spec.Seed));
  Out += ",\"order\":";
  appendEscaped(Out, Spec.Order);
  Out += ",\"checkpoint\":";
  appendEscaped(Out, Spec.CheckpointText);
  Out.push_back('}');
  return Out;
}

std::string charon::formatCancelCommand(uint64_t Shard) {
  std::string Out = "{\"cmd\":\"cancel\",\"shard\":";
  appendNumber(Out, static_cast<double>(Shard));
  Out.push_back('}');
  return Out;
}

std::string charon::formatPingCommand() { return "{\"cmd\":\"ping\"}"; }
std::string charon::formatQuitCommand() { return "{\"cmd\":\"quit\"}"; }

//===----------------------------------------------------------------------===//
// Event formatting
//===----------------------------------------------------------------------===//

std::string charon::formatReadyEvent() { return "{\"event\":\"ready\"}"; }
std::string charon::formatPongEvent() { return "{\"event\":\"pong\"}"; }

std::string charon::formatLoadedEvent(uint64_t Fingerprint) {
  std::string Out = "{\"event\":\"loaded\",\"fingerprint\":";
  appendEscaped(Out, formatU64(Fingerprint));
  Out.push_back('}');
  return Out;
}

std::string charon::formatDoneEvent(const FleetEvent &Ev) {
  std::string Out = "{\"event\":\"done\",\"shard\":";
  appendNumber(Out, static_cast<double>(Ev.Shard));
  Out += ",\"outcome\":";
  appendEscaped(Out, Ev.Outcome);
  Out += ",\"cex\":";
  appendNumberArray(Out, Ev.Cex);
  Out += ",\"objective\":";
  appendNumber(Out, Ev.Objective);
  Out += ",\"stats\":";
  appendStats(Out, Ev.Stats);
  Out += ",\"expanded_here\":";
  appendNumber(Out, static_cast<double>(Ev.ExpandedHere));
  Out += ",\"checkpoint\":";
  appendEscaped(Out, Ev.CheckpointText);
  Out.push_back('}');
  return Out;
}

std::string charon::formatErrorEvent(const std::string &Message) {
  std::string Out = "{\"event\":\"error\",\"message\":";
  appendEscaped(Out, Message);
  Out.push_back('}');
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

std::optional<FleetCommand> charon::parseCommandLine(const std::string &Line,
                                                     std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;
  auto CmdIt = Obj.find("cmd");
  if (CmdIt == Obj.end() || CmdIt->second.K != Value::Str) {
    setError(Error, "missing \"cmd\"");
    return std::nullopt;
  }
  const std::string &Cmd = CmdIt->second.S;

  FleetCommand Out;
  if (Cmd == "ping") {
    Out.K = FleetCommand::Kind::Ping;
    return Out;
  }
  if (Cmd == "quit") {
    Out.K = FleetCommand::Kind::Quit;
    return Out;
  }
  if (Cmd == "cancel") {
    Out.K = FleetCommand::Kind::Cancel;
    auto It = Obj.find("shard");
    if (It == Obj.end() || It->second.K != Value::Num || It->second.N < 0) {
      setError(Error, "cancel needs \"shard\"");
      return std::nullopt;
    }
    Out.CancelShard = static_cast<uint64_t>(It->second.N);
    return Out;
  }
  if (Cmd == "load") {
    Out.K = FleetCommand::Kind::Load;
    auto FpIt = Obj.find("fingerprint");
    auto NetIt = Obj.find("network");
    if (FpIt == Obj.end() || FpIt->second.K != Value::Str ||
        !parseU64(FpIt->second.S, Out.Fingerprint) || NetIt == Obj.end() ||
        NetIt->second.K != Value::Str) {
      setError(Error, "load needs \"fingerprint\" and \"network\"");
      return std::nullopt;
    }
    Out.NetworkText = NetIt->second.S;
    return Out;
  }
  if (Cmd != "run") {
    setError(Error, "unknown cmd: " + Cmd);
    return std::nullopt;
  }

  Out.K = FleetCommand::Kind::Run;
  RunSpec &R = Out.Run;
  for (const auto &[Key, V] : Obj) {
    if (Key == "cmd")
      continue;
    if (Key == "shard" && V.K == Value::Num && V.N >= 0)
      R.Shard = static_cast<uint64_t>(V.N);
    else if (Key == "fingerprint" && V.K == Value::Str &&
             parseU64(V.S, R.Fingerprint))
      ;
    else if (Key == "label" && V.K == Value::Num && V.N >= 0)
      R.Label = static_cast<size_t>(V.N);
    else if (Key == "lower" && V.K == Value::NumArray)
      R.Lower = V.A;
    else if (Key == "upper" && V.K == Value::NumArray)
      R.Upper = V.A;
    else if (Key == "delta" && V.K == Value::Num)
      R.Delta = V.N;
    else if (Key == "budget" && V.K == Value::Num)
      R.BudgetSeconds = V.N;
    else if (Key == "maxdepth" && V.K == Value::Num)
      R.MaxDepth = static_cast<int>(V.N);
    else if (Key == "pgd_steps" && V.K == Value::Num)
      R.PgdSteps = static_cast<int>(V.N);
    else if (Key == "pgd_restarts" && V.K == Value::Num)
      R.PgdRestarts = static_cast<int>(V.N);
    else if (Key == "pgd_step_scale" && V.K == Value::Num)
      R.PgdStepScale = V.N;
    else if (Key == "optimizer" && V.K == Value::Str)
      R.Optimizer = V.S;
    else if (Key == "use_cex_search" && V.K == Value::Bool)
      R.UseCexSearch = V.B;
    else if (Key == "seed" && V.K == Value::Str && parseU64(V.S, R.Seed))
      ;
    else if (Key == "order" && V.K == Value::Str)
      R.Order = V.S;
    else if (Key == "checkpoint" && V.K == Value::Str)
      R.CheckpointText = V.S;
    else {
      setError(Error, "unknown or mistyped run key: " + Key);
      return std::nullopt;
    }
  }
  if (R.Lower.empty() || R.Lower.size() != R.Upper.size()) {
    setError(Error, "run needs matching \"lower\"/\"upper\"");
    return std::nullopt;
  }
  if (R.CheckpointText.empty()) {
    setError(Error, "run needs \"checkpoint\"");
    return std::nullopt;
  }
  return Out;
}

std::optional<FleetEvent> charon::parseEventLine(const std::string &Line,
                                                 std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;
  auto EvIt = Obj.find("event");
  if (EvIt == Obj.end() || EvIt->second.K != Value::Str) {
    setError(Error, "missing \"event\"");
    return std::nullopt;
  }
  const std::string &Ev = EvIt->second.S;

  FleetEvent Out;
  if (Ev == "ready") {
    Out.K = FleetEvent::Kind::Ready;
    return Out;
  }
  if (Ev == "pong") {
    Out.K = FleetEvent::Kind::Pong;
    return Out;
  }
  if (Ev == "loaded") {
    Out.K = FleetEvent::Kind::Loaded;
    auto It = Obj.find("fingerprint");
    if (It == Obj.end() || It->second.K != Value::Str ||
        !parseU64(It->second.S, Out.Fingerprint)) {
      setError(Error, "loaded needs \"fingerprint\"");
      return std::nullopt;
    }
    return Out;
  }
  if (Ev == "error") {
    Out.K = FleetEvent::Kind::Error;
    auto It = Obj.find("message");
    if (It != Obj.end() && It->second.K == Value::Str)
      Out.Message = It->second.S;
    return Out;
  }
  if (Ev != "done") {
    setError(Error, "unknown event: " + Ev);
    return std::nullopt;
  }

  Out.K = FleetEvent::Kind::Done;
  bool HaveStats = false;
  for (const auto &[Key, V] : Obj) {
    if (Key == "event")
      continue;
    if (Key == "shard" && V.K == Value::Num && V.N >= 0)
      Out.Shard = static_cast<uint64_t>(V.N);
    else if (Key == "outcome" && V.K == Value::Str)
      Out.Outcome = V.S;
    else if (Key == "cex" && V.K == Value::NumArray)
      Out.Cex = V.A;
    else if (Key == "objective" && V.K == Value::Num)
      Out.Objective = V.N;
    else if (Key == "stats" && V.K == Value::NumArray)
      HaveStats = statsFromArray(V.A, Out.Stats);
    else if (Key == "expanded_here" && V.K == Value::Num)
      Out.ExpandedHere = static_cast<long>(V.N);
    else if (Key == "checkpoint" && V.K == Value::Str)
      Out.CheckpointText = V.S;
    else {
      setError(Error, "unknown or mistyped done key: " + Key);
      return std::nullopt;
    }
  }
  if (Out.Outcome != "verified" && Out.Outcome != "falsified" &&
      Out.Outcome != "timeout") {
    setError(Error, "done needs a valid \"outcome\"");
    return std::nullopt;
  }
  if (!HaveStats) {
    setError(Error, "done needs a 13-element \"stats\"");
    return std::nullopt;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Config transport
//===----------------------------------------------------------------------===//

VerifierConfig charon::configFromRunSpec(const RunSpec &Spec) {
  VerifierConfig C;
  C.Delta = Spec.Delta;
  C.TimeLimitSeconds = Spec.BudgetSeconds;
  C.MaxDepth = Spec.MaxDepth;
  C.Pgd.Steps = Spec.PgdSteps;
  C.Pgd.Restarts = Spec.PgdRestarts;
  C.Pgd.StepScale = Spec.PgdStepScale;
  C.Optimizer =
      Spec.Optimizer == "fgsm" ? CexSearchKind::Fgsm : CexSearchKind::Pgd;
  C.UseCounterexampleSearch = Spec.UseCexSearch;
  C.Seed = Spec.Seed;
  C.SearchOrder = Spec.Order == "best-first" ? FrontierOrder::BestFirst
                                             : FrontierOrder::Lifo;
  return C;
}

RunSpec charon::runSpecFromJob(const VerifierConfig &Config,
                               const RobustnessProperty &Prop,
                               uint64_t Fingerprint) {
  RunSpec Spec;
  Spec.Fingerprint = Fingerprint;
  Spec.Label = Prop.TargetClass;
  Spec.Lower.resize(Prop.Region.dim());
  Spec.Upper.resize(Prop.Region.dim());
  for (size_t I = 0; I < Prop.Region.dim(); ++I) {
    Spec.Lower[I] = Prop.Region.lower()[I];
    Spec.Upper[I] = Prop.Region.upper()[I];
  }
  Spec.Delta = Config.Delta;
  Spec.BudgetSeconds = Config.TimeLimitSeconds;
  Spec.MaxDepth = Config.MaxDepth;
  Spec.PgdSteps = Config.Pgd.Steps;
  Spec.PgdRestarts = Config.Pgd.Restarts;
  Spec.PgdStepScale = Config.Pgd.StepScale;
  Spec.Optimizer = Config.Optimizer == CexSearchKind::Fgsm ? "fgsm" : "pgd";
  Spec.UseCexSearch = Config.UseCounterexampleSearch;
  Spec.Seed = Config.Seed;
  Spec.Order =
      Config.SearchOrder == FrontierOrder::BestFirst ? "best-first" : "lifo";
  return Spec;
}

bool charon::configTransportable(const VerifierConfig &Config) {
  // Process-local hooks the wire cannot carry. Trace is not digested, so
  // it needs an explicit check; the others are also caught by the digest
  // comparison below, listed here for clarity.
  if (Config.Trace || Config.CompleteFallback || Config.Cegar.Enabled)
    return false;
  RobustnessProperty Probe;
  Probe.Region = Box(Vector(std::vector<double>{0.0}),
                     Vector(std::vector<double>{1.0}));
  RunSpec Spec = runSpecFromJob(Config, Probe, 0);
  return digestVerifierConfigSemantics(configFromRunSpec(Spec)) ==
         digestVerifierConfigSemantics(Config);
}
