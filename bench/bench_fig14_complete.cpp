//===- bench_fig14_complete.cpp - Figure 14: comparison with complete tools ----===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces Figure 14 (Sec. 7.2): Charon vs ReluVal vs Reluplex on the
// six fully connected networks (complete tools do not support convolution).
// The paper's headline: Charon solves 2.6x more than ReluVal and 16.6x
// more than Reluplex, and the Charon-solved set strictly contains the
// ReluVal-solved set.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace charon;
using namespace charon::bench;

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Figure 14: comparison with ReluVal and Reluplex ==\n");
  std::printf("(budget %.1fs/property, %d properties/network, conv net "
              "excluded, built-in policy)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  std::vector<BenchmarkSuite> Suites = buildFcSuites(Config);
  size_t Total = 0;
  for (const auto &S : Suites)
    Total += S.Properties.size();
  std::printf("%zu networks, %zu benchmarks\n\n", Suites.size(), Total);

  std::vector<RunRecord> Charon =
      runToolOnSuites(ToolKind::Charon, Suites, Config, Policy);
  std::vector<RunRecord> ReluVal =
      runToolOnSuites(ToolKind::ReluVal, Suites, Config, Policy);
  std::vector<RunRecord> Reluplex =
      runToolOnSuites(ToolKind::Reluplex, Suites, Config, Policy);
  std::vector<RunRecord> ReluplexBT =
      runToolOnSuites(ToolKind::ReluplexBT, Suites, Config, Policy);

  printSummaryRow("Charon", summarize(Charon));
  printSummaryRow("ReluVal", summarize(ReluVal));
  printSummaryRow("Reluplex", summarize(Reluplex));
  printSummaryRow("Reluplex-BT", summarize(ReluplexBT));
  std::printf("\ncactus series (cumulative seconds at each solved count):\n");
  printCactus("Charon", Charon);
  printCactus("ReluVal", ReluVal);
  printCactus("Reluplex", Reluplex);
  printCactus("Reluplex-BT", ReluplexBT);

  Summary C = summarize(Charon);
  Summary V = summarize(ReluVal);
  Summary P = summarize(Reluplex);
  auto Ratio = [](int A, int B) {
    return static_cast<double>(A) / std::max(B, 1);
  };
  std::printf("\nCharon solves %.1fx as many benchmarks as ReluVal "
              "(paper: 2.6x)\n",
              Ratio(C.solved(), V.solved()));
  std::printf("Charon solves %.1fx as many benchmarks as Reluplex "
              "(paper: 16.6x)\n",
              Ratio(C.solved(), P.solved()));

  // Superset check: every ReluVal-solved benchmark is also Charon-solved.
  std::set<std::string> CharonSolved;
  for (const RunRecord &R : Charon)
    if (R.Result == Verdict::Verified || R.Result == Verdict::Falsified)
      CharonSolved.insert(R.Property);
  int Missed = 0;
  for (const RunRecord &R : ReluVal)
    if ((R.Result == Verdict::Verified || R.Result == Verdict::Falsified) &&
        !CharonSolved.count(R.Property))
      ++Missed;
  std::printf("ReluVal-solved benchmarks missed by Charon: %d (paper: 0 — "
              "strict superset)\n",
              Missed);
  return 0;
}
