//===- image_robustness.cpp - Brightening attacks on an image classifier ------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The paper's evaluation workload (Sec. 7.1): train an MNIST-like
// classifier, generate brightening-attack robustness properties on test
// images, and decide each with the Charon verifier — printing which images
// are provably robust and which have concrete adversarial brightenings.
// It runs the built-in policy, as every bench does, and says so; a learned
// policy can be run on a property file with `charon_cli --policy`.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "data/Benchmarks.h"

#include <cstdio>

using namespace charon;

int main(int Argc, char **Argv) {
  int NumProperties = Argc > 1 ? std::atoi(Argv[1]) : 10;

  std::printf("== Brightening-attack robustness on an MNIST-like net ==\n\n");
  SuiteConfig Config;
  Config.Name = "example_mnist_3x25";
  Config.Data = mnistLikeConfig();
  Config.HiddenSizes = {25, 25, 25};
  Config.NumProperties = NumProperties;
  BenchmarkSuite Suite = makeImageSuite(Config);
  std::printf("trained %s: %zu -> %zu (cached in networks/)\n",
              Suite.Name.c_str(), Suite.Net.inputSize(),
              Suite.Net.outputSize());
  std::printf("policy: built-in\n\n");

  VerificationPolicy Policy;
  VerifierConfig VC;
  VC.TimeLimitSeconds = 5.0;
  Verifier V(Suite.Net, Policy, VC);

  int Verified = 0, Falsified = 0, Timeouts = 0;
  for (const auto &Prop : Suite.Properties) {
    VerifyResult R = V.verify(Prop);
    std::printf("%-22s class %zu  %-9s  %6.3fs  (%ld analyses, %ld splits)\n",
                Prop.Name.c_str(), Prop.TargetClass, toString(R.Result),
                R.Stats.Seconds, R.Stats.AnalyzeCalls, R.Stats.Splits);
    switch (R.Result) {
    case Outcome::Verified:
      ++Verified;
      break;
    case Outcome::Falsified: {
      ++Falsified;
      // Show how strong the brightening had to be: L-infinity distance of
      // the adversarial image from the original (the region's lower corner).
      Vector Delta = R.Counterexample;
      Delta -= Prop.Region.lower();
      std::printf("    adversarial brightening of strength %.3f flips the "
                  "class to %zu\n",
                  normInf(Delta), Suite.Net.classify(R.Counterexample));
      break;
    }
    case Outcome::Timeout:
      ++Timeouts;
      break;
    }
  }
  std::printf("\nsummary: %d verified, %d falsified, %d timeouts of %zu\n",
              Verified, Falsified, Timeouts, Suite.Properties.size());
  return 0;
}
