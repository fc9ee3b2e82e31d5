//===- charon_fuzz.cpp - Soundness-fuzzing campaign driver --------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Runs time-boxed soundness-fuzzing campaigns against the abstract
// transformers and the verifier, or replays a persisted repro file.
//
//   charon_fuzz [options]                 run a campaign
//   charon_fuzz --replay <file.repro>     replay one repro deterministically
//
// Options:
//   --seconds <s>      campaign wall-clock budget (default 60)
//   --cases <n>        stop after n cases (default: time budget only)
//   --seed <s>         campaign seed (default 1)
//   --out <dir>        write a .repro file per violating case (default
//                      fuzz-repros)
//   --domains <list>   comma-separated containment domains, e.g.
//                      Interval,Zonotope^2 (default: all domain families)
//   --samples <n>      concrete points per containment check (default 24)
//   --budget <s>       per-verify time budget inside oracles (default 1)
//   --inject-bug <eps> fault injection: pretend abstract bounds are eps
//                      tighter; a campaign must then report violations
//                      (sanity check that the oracles can catch real bugs)
//
// Exit status: 0 = no violations (or replay matched expectation),
//              1 = violations found (or replay mismatched), 2 = usage.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace charon;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--seconds S] [--cases N] [--seed X] [--out DIR] "
               "[--domains LIST] [--samples N] [--budget S] "
               "[--inject-bug EPS] [--replay FILE]\n",
               Argv0);
  std::exit(2);
}

int replay(const std::string &Path) {
  std::optional<FuzzRepro> Repro = loadReproFile(Path);
  if (!Repro) {
    std::fprintf(stderr, "error: cannot load repro from %s\n", Path.c_str());
    return 2;
  }
  std::printf("replaying campaign seed %llu case %ld (expect %s)\n",
              static_cast<unsigned long long>(Repro->CampaignSeed),
              Repro->CaseIndex, Repro->ExpectViolation ? "violation" : "clean");
  if (!Repro->Oracle.empty())
    std::printf("recorded: %s: %s\n", Repro->Oracle.c_str(),
                Repro->Message.c_str());

  ReplayResult Result = replayRepro(*Repro);
  for (const OracleViolation &V : Result.Violations)
    std::printf("violation: %s: %s\n", V.Oracle.c_str(), V.Message.c_str());
  std::printf("replay: %s (%s expectation)\n",
              Result.ViolationReproduced ? "violation reproduced" : "clean",
              Result.MatchesExpectation ? "matches" : "MISMATCHES");
  return Result.MatchesExpectation ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CampaignConfig Config;
  Config.ReproDir = "fuzz-repros";
  std::string ReplayPath;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--seconds") && I + 1 < Argc)
      Config.TimeBudgetSeconds = std::atof(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--cases") && I + 1 < Argc)
      Config.MaxCases = std::atol(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc)
      Config.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      Config.ReproDir = Argv[++I];
    else if (!std::strcmp(Argv[I], "--domains") && I + 1 < Argc) {
      std::string List = Argv[++I];
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        std::string Token = List.substr(
            Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
        if (!Token.empty()) {
          std::optional<DomainSpec> D = parseDomainSpec(Token);
          if (!D) {
            std::fprintf(stderr, "error: unknown domain '%s'\n",
                         Token.c_str());
            return 2;
          }
          Config.Domains.push_back(*D);
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else if (!std::strcmp(Argv[I], "--samples") && I + 1 < Argc)
      Config.Oracle.ContainmentSamples = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--budget") && I + 1 < Argc)
      Config.Oracle.VerifyBudgetSeconds = std::atof(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--inject-bug") && I + 1 < Argc)
      Config.Oracle.InjectTighten = std::atof(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--replay") && I + 1 < Argc)
      ReplayPath = Argv[++I];
    else
      usage(Argv[0]);
  }

  if (!ReplayPath.empty())
    return replay(ReplayPath);

  std::printf("charon_fuzz: seed %llu, budget %.1fs%s%s\n",
              static_cast<unsigned long long>(Config.Seed),
              Config.TimeBudgetSeconds,
              Config.MaxCases > 0 ? ", case-capped" : "",
              Config.Oracle.InjectTighten > 0.0 ? ", FAULT INJECTION ON"
                                                : "");
  CampaignResult Result = runCampaign(Config);
  const CampaignStats &S = Result.Stats;
  std::printf("cases %ld in %.1fs (%.1f/s): %ld containment, %ld precision, "
              "%ld agreement, %ld monotonicity, %ld cex, %ld resume, "
              "%ld certificate checks\n",
              S.Cases, S.Seconds, S.Seconds > 0 ? S.Cases / S.Seconds : 0.0,
              S.ContainmentChecks, S.PrecisionChecks, S.AgreementChecks,
              S.MonotonicityChecks, S.CexChecks, S.ResumeChecks,
              S.CertificateChecks);

  if (Result.Violations.empty()) {
    std::printf("no soundness-oracle violations\n");
    return 0;
  }
  std::printf("%ld VIOLATING CASES:\n", S.Violations);
  for (size_t I = 0; I < Result.Violations.size(); ++I) {
    const FuzzRepro &R = Result.Violations[I];
    std::printf("  case %ld: %s: %s\n", R.CaseIndex, R.Oracle.c_str(),
                R.Message.c_str());
    if (I < Result.ReproPaths.size() && !Result.ReproPaths[I].empty())
      std::printf("    repro: %s (replay with --replay)\n",
                  Result.ReproPaths[I].c_str());
  }
  return 1;
}
