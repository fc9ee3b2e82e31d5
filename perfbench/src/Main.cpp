//===- Main.cpp - perfbench command line ------------------------------------===//
//
// Part of the Charon end-to-end benchmark (perfbench/). run.py is the entry
// point users call; it builds this binary and invokes:
//
//   perfbench run --workload image|acas|serve --seed N --seconds S
//                 --trace 0|1 [--count N]
//   perfbench prepare    train/load every network, check fingerprints
//   perfbench pin --pool image|acas   re-derive a pinned pool (see README)
//   perfbench selftest   unit checks of the reporting rules
//
// Every command takes --root DIR (the checkout root, default ".").
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Metrics.h"
#include "Workloads.h"

#include "core/Digest.h"
#include "linalg/Kernels.h"
#include "linalg/SimdDispatch.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sys/stat.h>
#include <thread>

using namespace charon;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload image|acas|serve --seed N "
               "--seconds S --trace 0|1 [--count N] [--root DIR]\n"
               "       perfbench prepare [--root DIR]\n"
               "       perfbench pin --pool image|acas [--root DIR]\n"
               "       perfbench selftest\n");
  std::exit(2);
}

Paths pathsUnder(const std::string &Root) {
  Paths P;
  P.Root = Root;
  P.Networks = Root + "/.bench_build/perfbench/networks";
  P.Pinned = Root + "/perfbench/pinned";
  return P;
}

/// Refuses builds whose timings would mislead: unoptimized or sanitized.
const char *unfitBuild() {
#if !defined(NDEBUG)
  return "assertions are enabled (not an optimized build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
    return "Debug build";
  return nullptr;
#endif
}

/// The kernel settings must come from the benchmark, not the caller's
/// environment; run.py sets all three.
const char *missingKnob() {
  for (const char *Name :
       {"CHARON_SIMD", "CHARON_KERNEL_THREADS", "CHARON_KERNEL_THRESHOLD"})
    if (!std::getenv(Name))
      return Name;
  return nullptr;
}

void printSettings(const RunOptions &O) {
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::printf("# host: nproc=%u simd=%s build=%s rev=%s\n",
              std::thread::hardware_concurrency(),
              kernels::simdLevelName(kernels::simdLevel()),
              PERFBENCH_BUILD_TYPE,
              std::getenv("PERFBENCH_REV") ? std::getenv("PERFBENCH_REV")
                                           : "unknown");
  std::printf("# env: CHARON_SIMD=%s CHARON_KERNEL_THREADS=%s "
              "CHARON_KERNEL_THRESHOLD=%s (kernel threads in use %u, "
              "threshold %zu)\n",
              std::getenv("CHARON_SIMD"), std::getenv("CHARON_KERNEL_THREADS"),
              std::getenv("CHARON_KERNEL_THRESHOLD"), kernels::kernelThreads(),
              kernels::parallelThreshold());
  std::printf("# verifier: budget %gs per property, delta %g, built-in "
              "policy\n",
              BudgetSeconds, benchConfig().Delta);
}

int cmdRun(const RunOptions &O) {
  if (const char *Why = unfitBuild()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n", Why);
    return 3;
  }
  if (const char *Name = missingKnob()) {
    std::fprintf(stderr, "perfbench: %s is not set; run through run.py\n",
                 Name);
    return 3;
  }
  printSettings(O);
  RunReport R = O.Workload == "serve" ? runServe(O) : runClosedLoop(O);
  for (const std::string &Note : R.Notes)
    std::printf("# %s\n", Note.c_str());
  for (const std::string &Why : R.Failures)
    std::printf("# FAILED: %s\n", Why.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("%-26s %14.6g %-9s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples.c_str());
  bool Correct = R.Failed == 0 && R.Attempted > 0;
  if (!Correct)
    std::fprintf(stderr, "perfbench: %ld of %ld checks failed\n", R.Failed,
                 R.Attempted);
  if (R.Metrics.empty())
    return 1; // set-up failed: nothing was measured
  std::string Json = resultJson(Correct, R.Attempted, R.Failed, R.Metrics);
  if (Json.empty()) {
    std::fprintf(stderr, "perfbench: a metric is malformed or not finite\n");
    return 1;
  }
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}

/// Trains or loads every network and checks it against the pinned pools.
int cmdPrepare(const Paths &P) {
  for (const char *Pool : {"image", "acas"}) {
    std::string Error;
    auto C = generateCorpus(Pool, P, Error);
    if (!C) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 1;
    }
    std::string PoolPath = P.Pinned + "/" + Pool + ".txt";
    if (!std::ifstream(PoolPath)) {
      std::printf("perfbench: no pool %s yet; networks not checked\n",
                  PoolPath.c_str());
      continue;
    }
    auto Pinned = readPool(PoolPath, Error);
    if (!Pinned) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 1;
    }
    std::map<std::string, uint64_t> Have;
    for (const auto &Net : C->Nets)
      Have[Net->Name] = Net->Fingerprint;
    for (const auto &[Name, Fp] : Pinned->Fingerprints)
      if (Have[Name] != Fp) {
        std::fprintf(stderr,
                     "perfbench: network %s does not match its pinned "
                     "fingerprint\n",
                     Name.c_str());
        return 1;
      }
  }
  std::printf("perfbench: networks ready\n");
  return 0;
}

/// Re-derives a pool: verifies every candidate twice and admits those both
/// runs decide within AdmitShare of the budget. Falsified candidates must
/// carry a true counterexample (F <= 0), so no later run can land in the
/// delta band with the other verdict.
int cmdPin(const Paths &P, const std::string &Pool) {
  std::string Error;
  auto C = generateCorpus(Pool, P, Error);
  if (!C) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  PinnedPool Out;
  std::vector<char> NetUsed(C->Nets.size(), 0);
  VerificationPolicy Policy;
  VerifierConfig Config = benchConfig();
  for (const Case &Cand : C->Cases) {
    const Network &Net = C->Nets[Cand.Net]->Net;
    double Best = 1e30;
    VerifyResult First, Res;
    for (int Rep = 0; Rep < 2; ++Rep) {
      Stopwatch Watch;
      Res = Verifier(Net, Policy, Config).verify(Cand.Prop);
      Best = std::min(Best, Watch.seconds());
      if (Rep == 0)
        First = Res;
      if (Best > AdmitShare * BudgetSeconds)
        break; // too slow to admit; skip the confirming run
    }
    bool Admit = Res.Result != Outcome::Timeout &&
                 Res.Result == First.Result &&
                 Res.Stats.NodesExpanded == First.Stats.NodesExpanded &&
                 Best <= AdmitShare * BudgetSeconds &&
                 (Res.Result != Outcome::Falsified ||
                  Res.ObjectiveAtCex <= 0.0);
    std::printf("%-22s %-9s nodes %5ld %8.2f ms %s\n", Cand.Prop.Name.c_str(),
                toString(Res.Result), Res.Stats.NodesExpanded, 1e3 * Best,
                Admit ? "admitted" : "rejected");
    if (!Admit)
      continue;
    PinnedProp PP;
    PP.Net = C->Nets[Cand.Net]->Name;
    PP.Name = Cand.Prop.Name;
    PP.Digest = digestProperty(Cand.Prop);
    PP.Verdict = Res.Result;
    PP.Nodes = Res.Stats.NodesExpanded;
    PP.Millis = 1e3 * Best;
    PP.Label = Cand.Prop.TargetClass;
    if (Pool == "acas")
      PP.Region = Cand.Prop.Region;
    Out.Props.push_back(std::move(PP));
    NetUsed[Cand.Net] = 1;
  }
  for (size_t I = 0; I < C->Nets.size(); ++I)
    if (NetUsed[I])
      Out.Fingerprints.emplace_back(C->Nets[I]->Name, C->Nets[I]->Fingerprint);
  std::string Path = P.Pinned + "/" + Pool + ".txt";
  if (!writePool(Path, Out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("perfbench: pinned %zu of %zu candidates to %s\n",
              Out.Props.size(), C->Cases.size(), Path.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> Args;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 >= Argc)
      usage();
    Args[Argv[I] + 2] = Argv[I + 1];
    ++I;
  }
  auto Get = [&](const char *Key, const char *Default) {
    auto It = Args.find(Key);
    return It == Args.end() ? std::string(Default) : It->second;
  };
  Paths P = pathsUnder(Get("root", "."));

  if (Cmd == "selftest") {
    int Failures = runSelfTest();
    std::printf("perfbench selftest: %s\n", Failures ? "FAILED" : "ok");
    return Failures ? 1 : 0;
  }
  if (Cmd == "prepare")
    return cmdPrepare(P);
  if (Cmd == "pin") {
    std::string Pool = Get("pool", "");
    if (Pool != "image" && Pool != "acas")
      usage();
    return cmdPin(P, Pool);
  }
  if (Cmd != "run")
    usage();

  RunOptions O;
  O.Workload = Get("workload", "");
  if (O.Workload != "image" && O.Workload != "acas" && O.Workload != "serve")
    usage();
  O.Seed = std::strtoull(Get("seed", "0").c_str(), nullptr, 10);
  O.Seconds = std::atof(Get("seconds", "10").c_str());
  O.Trace = Get("trace", "0") == "1";
  O.Count = std::strtoull(Get("count", "0").c_str(), nullptr, 10);
  O.Where = P;
  if (O.Trace) {
    std::string Dir = P.Root + "/.bench_build/perfbench/traces";
    ::mkdir(Dir.c_str(), 0755);
    O.TraceFile = Dir + "/" + O.Workload + "-seed" +
                  std::to_string(O.Seed) + ".jsonl";
  }
  return cmdRun(O);
}
