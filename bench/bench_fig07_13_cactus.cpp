//===- bench_fig07_13_cactus.cpp - Figures 7-13: per-network cactus plots ------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces Figures 7-13: for each of the seven networks, the cumulative
// CPU time (y) against the number of benchmarks solved (x) for Charon,
// AI2-Zonotope and AI2-Bounded64. A series extending further right means
// the tool solved more; a lower curve means it was faster. The paper's
// qualitative shape: Charon extends furthest on most networks, and
// AI2-Bounded64 produces no series at all on the convolutional network.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace charon;
using namespace charon::bench;

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Figures 7-13: cumulative time vs benchmarks solved ==\n");
  std::printf("(budget %.1fs/property, %d properties/network, built-in "
              "policy)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  std::vector<BenchmarkSuite> Suites = buildAllSuites(Config);
  int Figure = 7;
  for (const BenchmarkSuite &Suite : Suites) {
    std::printf("Figure %d — %s (%zu inputs, %zu properties)\n", Figure++,
                Suite.Name.c_str(), Suite.Net.inputSize(),
                Suite.Properties.size());
    std::vector<BenchmarkSuite> One;
    One.push_back(BenchmarkSuite{Suite.Name, Suite.Net.clone(),
                                 Suite.Properties});
    for (ToolKind Tool : {ToolKind::Charon, ToolKind::Ai2Zonotope,
                          ToolKind::Ai2Bounded64}) {
      std::vector<RunRecord> Records =
          runToolOnSuites(Tool, One, Config, Policy);
      printCactus(toolName(Tool), Records);
    }
    std::printf("\n");
  }
  return 0;
}
