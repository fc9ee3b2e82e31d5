//===- Campaign.h - Time-boxed soundness-fuzzing campaigns -------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign runner ties the pieces together: it derives one independent
/// RNG per case index from the campaign seed (so any single case can be
/// replayed without re-running its predecessors), generates a random
/// network + property, and feeds them through the full oracle set —
/// containment on every configured domain, powerset precision, verdict
/// agreement, counterexample validity, and subregion monotonicity. Any
/// violation is captured as a self-contained FuzzRepro and, when a repro
/// directory is configured, written to disk for the fuzz_repro test target
/// and manual triage.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FUZZ_CAMPAIGN_H
#define CHARON_FUZZ_CAMPAIGN_H

#include "fuzz/Repro.h"

#include <optional>
#include <string>
#include <vector>

namespace charon {

/// Campaign parameters.
struct CampaignConfig {
  uint64_t Seed = 1;
  /// Wall-clock budget; <= 0 means unlimited (MaxCases must then be set).
  double TimeBudgetSeconds = 60.0;
  /// Case cap; <= 0 means unlimited within the time budget.
  long MaxCases = -1;
  GeneratorConfig Gen;
  OracleConfig Oracle;
  /// Domains the containment oracle checks. Empty selects the default set
  /// (interval, symbolic interval, zonotope, powersets of interval and
  /// zonotope, polyhedra).
  std::vector<DomainSpec> Domains;
  /// When non-empty, every violating case is written here as
  /// fuzz-<seed>-<index>.repro.
  std::string ReproDir;
};

/// Counters over one campaign.
struct CampaignStats {
  long Cases = 0;
  long ContainmentChecks = 0;
  long PrecisionChecks = 0;
  long AgreementChecks = 0;
  long MonotonicityChecks = 0;
  long CexChecks = 0;
  long ResumeChecks = 0;
  long CertificateChecks = 0;
  long Violations = 0; ///< violating cases (not individual messages)
  double Seconds = 0.0;

  long totalChecks() const {
    return ContainmentChecks + PrecisionChecks + AgreementChecks +
           MonotonicityChecks + CexChecks + ResumeChecks + CertificateChecks;
  }
};

/// Campaign outcome: stats plus one repro per violating case.
struct CampaignResult {
  CampaignStats Stats;
  std::vector<FuzzRepro> Violations;
  std::vector<std::string> ReproPaths; ///< files written (when ReproDir set)
};

/// The default containment-domain set (the four domain families).
std::vector<DomainSpec> defaultFuzzDomains();

/// Parses a domain name as printed by toString(DomainSpec), e.g.
/// "Interval", "Zonotope^2"; nullopt on unknown names or bad budgets.
std::optional<DomainSpec> parseDomainSpec(const std::string &Name);

/// The deterministic per-case RNG: depends only on the campaign seed and
/// the case index, never on elapsed time or prior cases.
Rng caseRng(uint64_t CampaignSeed, long CaseIndex);

/// Runs the full oracle set on one (network, property) case. \p OracleR
/// must be positioned as produced by caseRng()+fork discipline (see
/// runCampaign/replayRepro). Stats are accumulated into \p Stats when
/// non-null.
std::vector<OracleViolation>
runFuzzCase(const Network &Net, const RobustnessProperty &Prop,
            const std::vector<DomainSpec> &Domains, const OracleConfig &Cfg,
            Rng &OracleR, CampaignStats *Stats = nullptr);

/// Runs a time-boxed campaign.
CampaignResult runCampaign(const CampaignConfig &Config);

} // namespace charon

#endif // CHARON_FUZZ_CAMPAIGN_H
