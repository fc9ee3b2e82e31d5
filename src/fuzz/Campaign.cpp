//===- Campaign.cpp - Time-boxed soundness-fuzzing campaigns ------------------===//

#include "fuzz/Campaign.h"

#include "support/Random.h"
#include "support/TextFormat.h"
#include "support/Timer.h"

#include <filesystem>
#include <sstream>

using namespace charon;

std::vector<DomainSpec> charon::defaultFuzzDomains() {
  return {{BaseDomainKind::Interval, 1},
          {BaseDomainKind::SymbolicInterval, 1},
          {BaseDomainKind::Zonotope, 1},
          {BaseDomainKind::Polyhedra, 1},
          {BaseDomainKind::Interval, 2},
          {BaseDomainKind::Zonotope, 2}};
}

std::optional<DomainSpec> charon::parseDomainSpec(const std::string &Name) {
  std::string Base = Name;
  int Disjuncts = 1;
  size_t Caret = Name.find('^');
  if (Caret != std::string::npos) {
    Base = Name.substr(0, Caret);
    if (!parseInteger(std::string_view(Name).substr(Caret + 1), Disjuncts) ||
        Disjuncts < 1 || Disjuncts > 64)
      return std::nullopt;
  }

  DomainSpec Spec;
  Spec.Disjuncts = Disjuncts;
  if (Base == "Interval")
    Spec.Base = BaseDomainKind::Interval;
  else if (Base == "Zonotope")
    Spec.Base = BaseDomainKind::Zonotope;
  else if (Base == "SymbolicInterval")
    Spec.Base = BaseDomainKind::SymbolicInterval;
  else if (Base == "Polyhedra")
    Spec.Base = BaseDomainKind::Polyhedra;
  else
    return std::nullopt;
  // Symbolic intervals have no powerset lifting (makeElement asserts).
  if (Spec.Base == BaseDomainKind::SymbolicInterval && Spec.Disjuncts > 1)
    return std::nullopt;
  return Spec;
}

Rng charon::caseRng(uint64_t CampaignSeed, long CaseIndex) {
  return Rng(CampaignSeed ^
             (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(CaseIndex + 1)));
}

std::vector<OracleViolation>
charon::runFuzzCase(const Network &Net, const RobustnessProperty &Prop,
                    const std::vector<DomainSpec> &Domains,
                    const OracleConfig &Cfg, Rng &OracleR,
                    CampaignStats *Stats) {
  std::vector<OracleViolation> All;
  auto Append = [&All](std::vector<OracleViolation> V) {
    for (OracleViolation &X : V)
      All.push_back(std::move(X));
  };

  for (const DomainSpec &D : Domains) {
    if (D.Base == BaseDomainKind::SymbolicInterval && D.Disjuncts > 1)
      continue;
    Append(checkContainment(Net, Prop.Region, D, Cfg, OracleR));
    if (Stats)
      ++Stats->ContainmentChecks;
  }

  for (const DomainSpec &D : Domains) {
    if (D.Disjuncts <= 1)
      continue;
    Append(checkPowersetPrecision(Net, Prop.Region, Prop.TargetClass, D.Base,
                                  D.Disjuncts, Cfg));
    if (Stats)
      ++Stats->PrecisionChecks;
  }

  VerificationPolicy Policy;
  Verifier V(Net, Policy, oracleVerifierConfig(Cfg));
  VerifyResult Full = V.verify(Prop);

  Append(checkCounterexample(Net, Prop, Full, Cfg));
  if (Stats)
    ++Stats->CexChecks;

  Append(checkSubregionMonotonicity(Net, Prop, Full, Policy, Cfg, OracleR));
  if (Stats)
    ++Stats->MonotonicityChecks;

  Append(checkVerdictAgreement(Net, Prop, Policy, Cfg));
  if (Stats)
    ++Stats->AgreementChecks;

  Append(checkCheckpointResume(Net, Prop, Policy, Cfg, OracleR));
  if (Stats)
    ++Stats->ResumeChecks;

  // Draws no RNG, so it can follow the RNG consumers without perturbing any
  // stream (and hence the checked-in repro corpus).
  Append(checkCertificates(Net, Prop, Policy, Cfg));
  if (Stats)
    ++Stats->CertificateChecks;

  return All;
}

CampaignResult charon::runCampaign(const CampaignConfig &Config) {
  CampaignResult Res;
  // Refuse the doubly-unbounded configuration instead of running forever.
  if (Config.TimeBudgetSeconds <= 0.0 && Config.MaxCases <= 0)
    return Res;

  const std::vector<DomainSpec> Domains =
      Config.Domains.empty() ? defaultFuzzDomains() : Config.Domains;
  Deadline Budget(Config.TimeBudgetSeconds > 0.0 ? Config.TimeBudgetSeconds
                                                 : -1.0);
  Stopwatch Watch;

  if (!Config.ReproDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Config.ReproDir, Ec);
  }

  for (long Index = 0;; ++Index) {
    if (Budget.expired())
      break;
    if (Config.MaxCases > 0 && Index >= Config.MaxCases)
      break;

    Rng Base = caseRng(Config.Seed, Index);
    Rng GenR = Base.fork();
    Rng OracleR = Base.fork();

    NetworkSpec Spec = generateNetworkSpec(GenR, Config.Gen);
    Network Net = buildNetwork(Spec);
    RobustnessProperty Prop = generateProperty(GenR, Net, Config.Gen);
    std::ostringstream NameOs;
    NameOs << "fuzz-" << Config.Seed << "-" << Index;
    Prop.Name = NameOs.str();

    std::vector<OracleViolation> Violations =
        runFuzzCase(Net, Prop, Domains, Config.Oracle, OracleR, &Res.Stats);
    ++Res.Stats.Cases;
    if (Violations.empty())
      continue;

    ++Res.Stats.Violations;
    FuzzRepro Repro;
    Repro.CampaignSeed = Config.Seed;
    Repro.CaseIndex = Index;
    Repro.ExpectViolation = true;
    Repro.Oracle = Violations.front().Oracle;
    std::string Joined;
    for (size_t I = 0; I < Violations.size() && I < 3; ++I) {
      if (I)
        Joined += "; ";
      Joined += Violations[I].Message;
    }
    Repro.Message = Joined;
    Repro.Cfg = Config.Oracle;
    Repro.Domains = Domains;
    Repro.Net = Spec;
    Repro.Prop = Prop;
    Res.Violations.push_back(Repro);

    if (!Config.ReproDir.empty()) {
      std::string Path = Config.ReproDir + "/" + Prop.Name + ".repro";
      // Keep ReproPaths parallel to Violations (empty slot on write failure).
      Res.ReproPaths.push_back(saveReproFile(Repro, Path) ? Path
                                                          : std::string());
    }
  }

  Res.Stats.Seconds = Watch.seconds();
  return Res;
}
