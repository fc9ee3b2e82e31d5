//===- Repro.cpp - Self-contained replayable fuzz repro files -----------------===//

#include "fuzz/Repro.h"

#include "core/PropertyIo.h"
#include "fuzz/Campaign.h"
#include "support/Random.h"

#include <fstream>
#include <iomanip>
#include <sstream>

using namespace charon;

void charon::saveRepro(const FuzzRepro &Repro, std::ostream &Os) {
  Os << "charon-fuzz-repro 1\n";
  Os << "campaign-seed " << Repro.CampaignSeed << "\n";
  Os << "case " << Repro.CaseIndex << "\n";
  Os << "expect " << (Repro.ExpectViolation ? "violation" : "clean") << "\n";
  Os << "oracle " << (Repro.Oracle.empty() ? "-" : Repro.Oracle) << "\n";
  Os << "message " << (Repro.Message.empty() ? "-" : Repro.Message) << "\n";
  Os << std::setprecision(17);
  Os << "samples " << Repro.Cfg.ContainmentSamples << "\n";
  Os << "subregions " << Repro.Cfg.SubregionTrials << "\n";
  Os << "tolerance " << Repro.Cfg.Tolerance << "\n";
  Os << "delta " << Repro.Cfg.Delta << "\n";
  Os << "budget " << Repro.Cfg.VerifyBudgetSeconds << "\n";
  Os << "verifier-seed " << Repro.Cfg.VerifierSeed << "\n";
  Os << "inject " << Repro.Cfg.InjectTighten << "\n";
  Os << "domains " << Repro.Domains.size();
  for (const DomainSpec &D : Repro.Domains)
    Os << " " << toString(D);
  Os << "\n";
  Os << "network ";
  writeNetworkSpec(Repro.Net, Os);
  saveProperty(Repro.Prop, Os);
}

std::optional<FuzzRepro> charon::loadRepro(std::istream &Is) {
  std::string Magic, Key;
  int Version = 0;
  if (!(Is >> Magic >> Version) || Magic != "charon-fuzz-repro" ||
      Version != 1)
    return std::nullopt;

  FuzzRepro Repro;
  if (!(Is >> Key >> Repro.CampaignSeed) || Key != "campaign-seed")
    return std::nullopt;
  if (!(Is >> Key >> Repro.CaseIndex) || Key != "case" || Repro.CaseIndex < 0)
    return std::nullopt;

  std::string Expect;
  if (!(Is >> Key >> Expect) || Key != "expect" ||
      (Expect != "violation" && Expect != "clean"))
    return std::nullopt;
  Repro.ExpectViolation = Expect == "violation";

  if (!(Is >> Key >> Repro.Oracle) || Key != "oracle")
    return std::nullopt;
  if (Repro.Oracle == "-")
    Repro.Oracle.clear();

  if (!(Is >> Key) || Key != "message")
    return std::nullopt;
  std::getline(Is, Repro.Message);
  if (!Repro.Message.empty() && Repro.Message.front() == ' ')
    Repro.Message.erase(0, 1);
  if (Repro.Message == "-")
    Repro.Message.clear();

  if (!(Is >> Key >> Repro.Cfg.ContainmentSamples) || Key != "samples" ||
      Repro.Cfg.ContainmentSamples < 0)
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.SubregionTrials) || Key != "subregions" ||
      Repro.Cfg.SubregionTrials < 0)
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.Tolerance) || Key != "tolerance" ||
      !(Repro.Cfg.Tolerance >= 0.0))
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.Delta) || Key != "delta")
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.VerifyBudgetSeconds) || Key != "budget")
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.VerifierSeed) || Key != "verifier-seed")
    return std::nullopt;
  if (!(Is >> Key >> Repro.Cfg.InjectTighten) || Key != "inject")
    return std::nullopt;

  size_t NumDomains = 0;
  if (!(Is >> Key >> NumDomains) || Key != "domains" || NumDomains > 64)
    return std::nullopt;
  for (size_t I = 0; I < NumDomains; ++I) {
    std::string Token;
    if (!(Is >> Token))
      return std::nullopt;
    std::optional<DomainSpec> D = parseDomainSpec(Token);
    if (!D)
      return std::nullopt;
    Repro.Domains.push_back(*D);
  }

  if (!(Is >> Key) || Key != "network" || !readNetworkSpec(Is, Repro.Net))
    return std::nullopt;

  std::optional<RobustnessProperty> Prop = loadProperty(Is);
  if (!Prop)
    return std::nullopt;
  Repro.Prop = std::move(*Prop);

  // The objective needs a class besides the target, so the network needs
  // two outputs.
  if (Repro.Prop.Region.dim() != specInputSize(Repro.Net) ||
      specOutputSize(Repro.Net) < 2 ||
      Repro.Prop.TargetClass >= specOutputSize(Repro.Net))
    return std::nullopt;
  return Repro;
}

bool charon::saveReproFile(const FuzzRepro &Repro, const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  saveRepro(Repro, Os);
  return static_cast<bool>(Os);
}

std::optional<FuzzRepro> charon::loadReproFile(const std::string &Path) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return loadRepro(Is);
}

ReplayResult charon::replayRepro(const FuzzRepro &Repro) {
  // Mirror the campaign's RNG discipline exactly: the generation fork is
  // burned (the repro carries the generated artifacts), the oracle fork is
  // replayed.
  Rng Base = caseRng(Repro.CampaignSeed, Repro.CaseIndex);
  Rng GenR = Base.fork();
  (void)GenR;
  Rng OracleR = Base.fork();

  Network Net = buildNetwork(Repro.Net);
  std::vector<DomainSpec> Domains =
      Repro.Domains.empty() ? defaultFuzzDomains() : Repro.Domains;

  ReplayResult Result;
  Result.Violations =
      runFuzzCase(Net, Repro.Prop, Domains, Repro.Cfg, OracleR);
  Result.ViolationReproduced = !Result.Violations.empty();
  Result.MatchesExpectation =
      Result.ViolationReproduced == Repro.ExpectViolation;
  return Result;
}
