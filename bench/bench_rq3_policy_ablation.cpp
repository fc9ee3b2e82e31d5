//===- bench_rq3_policy_ablation.cpp - Sec. 7.4: learned vs static policies ----===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces the mechanism behind RQ3: train a verification policy on the
// ACAS-like problems (the paper's training set, Sec. 6) and compare it —
// on the unseen image benchmarks — against (a) the hand-tuned default
// theta, (b) a static ReluVal-style strategy (fixed plain-zonotope domain,
// always bisect the longest dimension), and (c) random theta. The learned
// and default policies should dominate the static and random ones.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/PolicyIo.h"
#include "core/PolicyTrainer.h"
#include "support/Random.h"

#include <cstdio>

using namespace charon;
using namespace charon::bench;

namespace {

/// A static, hand-crafted strategy in the spirit of ReluVal's refinement:
/// always the plain zonotope domain, always bisect the longest dimension.
VerificationPolicy makeStaticPolicy() {
  Matrix Theta(PolicyNumOutputs, PolicyNumFeatures);
  Theta(0, 4) = 10.0;  // base domain: hard zonotope
  Theta(1, 4) = -10.0; // disjuncts: hard 1
  Theta(2, 4) = 10.0;  // dimension: hard longest
  Theta(3, 4) = -10.0;
  Theta(4, 4) = -10.0; // offset: hard bisection
  return VerificationPolicy(std::move(Theta));
}

} // namespace

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  const char *PolicyPath = "networks/policy.txt";

  std::printf("== Sec. 7.4 (RQ3): impact of learning the verification "
              "policy ==\n");
  std::printf("(budget %.1fs/property, %d properties/network)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  // Training phase (Sec. 6): 12 ACAS-like properties, Bayesian optimization
  // over theta, p = 2. Reuse a previously learned policy when present.
  VerificationPolicy Learned;
  if (auto FromDisk = loadPolicyFile(PolicyPath)) {
    Learned = *FromDisk;
    std::printf("loaded learned policy from %s\n\n", PolicyPath);
  } else {
    std::printf("training policy on 12 ACAS-like properties...\n");
    BenchmarkSuite Acas = makeAcasSuite(12, 77);
    std::vector<TrainingProblem> Problems;
    for (const auto &Prop : Acas.Properties)
      Problems.push_back({&Acas.Net, Prop});
    PolicyTrainConfig TC;
    TC.TimeLimitSeconds = 0.5;
    TC.BayesOpt.InitialSamples = 6;
    TC.BayesOpt.Iterations = 10;
    Rng R(4242);
    PolicyTrainResult Result = trainPolicy(Problems, TC, R);
    Learned = Result.Policy;
    savePolicyFile(Learned, PolicyPath);
    std::printf("training done: score %.3f (default %.3f), saved to %s\n\n",
                Result.BestScore, Result.DefaultScore, PolicyPath);
  }

  // Deployment phase on the unseen image suites.
  std::vector<BenchmarkSuite> Suites = buildFcSuites(Config);

  Rng RandomRng(31337);
  Vector RandomFlat(VerificationPolicy::numParameters());
  for (size_t I = 0; I < RandomFlat.size(); ++I)
    RandomFlat[I] = RandomRng.uniform(-1.5, 1.5);

  struct Candidate {
    const char *Name;
    VerificationPolicy Policy;
  };
  Candidate Candidates[] = {
      {"learned", Learned},
      {"default", VerificationPolicy()},
      {"static-zono", makeStaticPolicy()},
      {"random-theta", VerificationPolicy::fromFlat(RandomFlat)},
  };

  std::printf("%-14s %-9s %-10s %-9s %s\n", "policy", "verified", "falsified",
              "timeout", "total-seconds");
  for (const Candidate &C : Candidates) {
    Summary S = summarize(
        runToolOnSuites(ToolKind::Charon, Suites, Config, C.Policy));
    std::printf("%-14s %-9d %-10d %-9d %.1f\n", C.Name, S.Verified,
                S.Falsified, S.Timeout, S.TotalSeconds);
  }

  std::printf("\nShape check vs the paper: adaptive policies (learned or the "
              "tuned default)\nshould solve at least as many benchmarks as "
              "the static ReluVal-style\nstrategy, and clearly more than "
              "random theta.\n");
  return 0;
}
