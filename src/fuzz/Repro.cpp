//===- Repro.cpp - Self-contained replayable fuzz repro files -----------------===//

#include "fuzz/Repro.h"

#include "core/PropertyIo.h"
#include "fuzz/Campaign.h"
#include "support/Random.h"

#include "support/TextFormat.h"

using namespace charon;

void charon::saveRepro(const FuzzRepro &Repro, std::ostream &Os) {
  writeHeader(Os, "charon-fuzz-repro", 1);
  Os << "\ncampaign-seed " << Repro.CampaignSeed << "\n";
  Os << "case " << Repro.CaseIndex << "\n";
  Os << "expect " << (Repro.ExpectViolation ? "violation" : "clean") << "\n";
  Os << "oracle " << (Repro.Oracle.empty() ? "-" : Repro.Oracle) << "\n";
  Os << "message " << (Repro.Message.empty() ? "-" : Repro.Message) << "\n";
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
  TextReader R(Is);
  FuzzRepro Repro;
  OracleConfig &Cfg = Repro.Cfg;
  std::string_view Tok;
  if (!R.header("charon-fuzz-repro", 1) || !R.keyword("campaign-seed") ||
      !R.integer(Repro.CampaignSeed) || !R.keyword("case") ||
      !R.integer(Repro.CaseIndex) || Repro.CaseIndex < 0 ||
      !R.keyword("expect") || !R.token(Tok) ||
      (Tok != "violation" && Tok != "clean"))
    return std::nullopt;
  Repro.ExpectViolation = Tok == "violation";

  if (!R.keyword("oracle") || !R.token(Tok))
    return std::nullopt;
  Repro.Oracle = Tok == "-" ? "" : Tok;

  if (!R.keyword("message"))
    return std::nullopt;
  R.line(Repro.Message);
  if (!Repro.Message.empty() && Repro.Message.front() == ' ')
    Repro.Message.erase(0, 1);
  if (Repro.Message == "-")
    Repro.Message.clear();

  size_t NumDomains = 0;
  if (!R.keyword("samples") || !R.integer(Cfg.ContainmentSamples) ||
      Cfg.ContainmentSamples < 0 || !R.keyword("subregions") ||
      !R.integer(Cfg.SubregionTrials) || Cfg.SubregionTrials < 0 ||
      !R.keyword("tolerance") || !R.number(Cfg.Tolerance) ||
      !(Cfg.Tolerance >= 0.0) || !R.keyword("delta") ||
      !R.number(Cfg.Delta) || !R.keyword("budget") ||
      !R.number(Cfg.VerifyBudgetSeconds) || !R.keyword("verifier-seed") ||
      !R.integer(Cfg.VerifierSeed) || !R.keyword("inject") ||
      !R.number(Cfg.InjectTighten) || !R.keyword("domains") ||
      !R.integer(NumDomains) || NumDomains > 64)
    return std::nullopt;
  for (size_t I = 0; I < NumDomains; ++I) {
    std::optional<DomainSpec> D;
    if (!R.token(Tok) || !(D = parseDomainSpec(std::string(Tok))))
      return std::nullopt;
    Repro.Domains.push_back(*D);
  }

  std::optional<RobustnessProperty> Prop;
  if (!R.keyword("network") || !readNetworkSpec(R, Repro.Net) ||
      !(Prop = readProperty(R)))
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
  return saveTextFile(Repro, Path, saveRepro);
}

std::optional<FuzzRepro> charon::loadReproFile(const std::string &Path) {
  return loadTextFile(Path, loadRepro);
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
