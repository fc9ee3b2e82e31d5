//===- charon_cli.cpp - Command-line verification driver -----------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// A standalone driver in the style of the original tool: load a serialized
// network and a property spec, pick a verifier, and print the verdict.
//
//   charon_cli <network.net|model.onnx> <property.prop> [options]
//   charon_cli --import-onnx <model.onnx> <out.net>
//
// A network argument ending in .onnx is imported through the built-in ONNX
// reader (see src/onnx/) before verification; --import-onnx converts a
// model to the native .net format and prints its content fingerprint.
//
// Options:
//   --tool charon|ai2-zonotope|ai2-bounded64|reluval|reluplex   (default charon)
//   --budget <seconds>      per-property time limit (default 10)
//   --delta <d>             Eq. 4 threshold (default 1e-6, charon only)
//   --policy <file>         learned policy (default: built-in policy)
//   --parallel              analyze subregions on all cores (charon only)
//   --trace <file.jsonl>    write one JSON line per node expansion
//   --checkpoint <file>     on Timeout, save the open frontier here
//   --resume <file>         continue the search from a saved checkpoint
//   --cert <file>           on a decided verdict, save a proof certificate
//                           (re-check it with charon_check; charon only)
//
// A budget or delta that is not a finite number above 0 prints the usage
// text and exits 2.
//
//===----------------------------------------------------------------------===//

#include "baselines/Ai2.h"
#include "baselines/ReluVal.h"
#include "baselines/Reluplex.h"
#include "core/PolicyIo.h"
#include "core/PropertyIo.h"
#include "core/Verifier.h"
#include "cert/Certificate.h"
#include "core/Digest.h"
#include "nn/Io.h"
#include "onnx/OnnxImport.h"
#include "search/Checkpoint.h"
#include "support/TextFormat.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

using namespace charon;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <network.net|model.onnx> <property.prop> [--tool T] "
               "[--budget S] [--delta D] [--policy F] "
               "[--parallel] [--trace F] [--checkpoint F] [--resume F] "
               "[--cert F]\n"
               "       %s --import-onnx <model.onnx> <out.net>\n",
               Argv0, Argv0);
  std::exit(2);
}

/// Reads the number after flag \p I: a finite number above 0. Anything
/// else prints the usage text and exits 2.
double positiveArg(int Argc, char **Argv, int &I) {
  double V = 0.0;
  if (I + 1 >= Argc || !parseNumber(Argv[++I], V) || !(V > 0.0))
    usage(Argv[0]);
  return V;
}

/// Loads a network from either the native format or an ONNX model,
/// dispatching on the file extension.
std::optional<Network> loadAnyNetworkFile(const std::string &Path) {
  if (!onnx::isOnnxPath(Path))
    return loadNetworkFile(Path);
  onnx::ImportResult R = onnx::importModelFile(Path);
  if (!R.Net)
    std::fprintf(stderr, "error: onnx import: %s\n", R.Error.c_str());
  return std::move(R.Net);
}

void printCex(const Network &Net, const Vector &Cex) {
  std::printf("counterexample (classified %zu):", Net.classify(Cex));
  for (size_t I = 0; I < Cex.size(); ++I)
    std::printf(" %.6g", Cex[I]);
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && !std::strcmp(Argv[1], "--import-onnx")) {
    if (Argc != 4)
      usage(Argv[0]);
    onnx::ImportResult R = onnx::importModelFile(Argv[2]);
    if (!R.Net) {
      std::fprintf(stderr, "error: onnx import: %s\n", R.Error.c_str());
      return 2;
    }
    if (!saveNetworkFile(*R.Net, Argv[3])) {
      std::fprintf(stderr, "error: cannot write %s\n", Argv[3]);
      return 2;
    }
    std::printf("imported %s: %zu layers, %zu -> %zu, fingerprint %016llx\n",
                Argv[2], R.Net->numLayers(), R.Net->inputSize(),
                R.Net->outputSize(),
                static_cast<unsigned long long>(fingerprintNetwork(*R.Net)));
    return 0;
  }
  if (Argc < 3)
    usage(Argv[0]);

  std::string Tool = "charon";
  double Budget = 10.0;
  double Delta = 1e-6;
  std::string PolicyPath;
  bool Parallel = false;
  std::string TracePath, CheckpointPath, ResumePath, CertPath;
  for (int I = 3; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--tool") && I + 1 < Argc)
      Tool = Argv[++I];
    else if (!std::strcmp(Argv[I], "--budget"))
      Budget = positiveArg(Argc, Argv, I);
    else if (!std::strcmp(Argv[I], "--delta"))
      Delta = positiveArg(Argc, Argv, I);
    else if (!std::strcmp(Argv[I], "--policy") && I + 1 < Argc)
      PolicyPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--parallel"))
      Parallel = true;
    else if (!std::strcmp(Argv[I], "--trace") && I + 1 < Argc)
      TracePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--checkpoint") && I + 1 < Argc)
      CheckpointPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--resume") && I + 1 < Argc)
      ResumePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--cert") && I + 1 < Argc)
      CertPath = Argv[++I];
    else
      usage(Argv[0]);
  }

  auto Net = loadAnyNetworkFile(Argv[1]);
  if (!Net) {
    std::fprintf(stderr, "error: cannot load network from %s\n", Argv[1]);
    return 2;
  }
  auto Prop = loadPropertyFile(Argv[2]);
  if (!Prop) {
    std::fprintf(stderr, "error: cannot load property from %s\n", Argv[2]);
    return 2;
  }
  if (!propertyFitsNetwork(*Prop, *Net)) {
    std::fprintf(stderr, "error: property does not match network shape\n");
    return 2;
  }

  if (Tool == "charon") {
    VerificationPolicy Policy;
    if (!PolicyPath.empty()) {
      if (auto P = loadPolicyFile(PolicyPath))
        Policy = *P;
      else
        std::fprintf(stderr, "warning: bad policy file %s, using default\n",
                     PolicyPath.c_str());
    }
    VerifierConfig VC;
    VC.TimeLimitSeconds = Budget;
    VC.Delta = Delta;
    VC.EmitCertificate = !CertPath.empty();

    std::ofstream TraceOs;
    if (!TracePath.empty()) {
      TraceOs.open(TracePath);
      if (!TraceOs) {
        std::fprintf(stderr, "error: cannot open trace file %s\n",
                     TracePath.c_str());
        return 2;
      }
      VC.Trace = makeJsonlTraceSink(TraceOs);
    }

    std::optional<SearchCheckpoint> Resume;
    if (!ResumePath.empty()) {
      Resume = loadCheckpointFile(ResumePath);
      if (!Resume) {
        std::fprintf(stderr, "error: cannot load checkpoint from %s\n",
                     ResumePath.c_str());
        return 2;
      }
    }

    Verifier V(*Net, Policy, VC);
    VerifyResult R;
    if (Parallel) {
      ThreadPool Pool;
      R = V.verifyParallel(*Prop, Pool, Resume ? &*Resume : nullptr);
    } else {
      R = V.verify(*Prop, Resume ? &*Resume : nullptr);
    }
    std::printf("%s: %s in %.3fs (%ld pgd, %ld analyses, %ld splits, "
                "%ld nodes)\n",
                Prop->Name.c_str(), toString(R.Result), R.Stats.Seconds,
                R.Stats.PgdCalls, R.Stats.AnalyzeCalls, R.Stats.Splits,
                R.Stats.NodesExpanded);
    if (R.Result == Outcome::Falsified)
      printCex(*Net, R.Counterexample);
    if (!CertPath.empty() && R.Result != Outcome::Timeout) {
      if (R.Certificate && saveCertificateFile(*R.Certificate, CertPath))
        std::printf("certificate: %zu nodes saved to %s\n",
                    R.Certificate->Nodes.size(), CertPath.c_str());
      else if (!R.Certificate)
        // A resumed Verified run is sound but carries no self-contained
        // proof (see core/Verifier.h).
        std::fprintf(stderr, "note: this verdict carries no certificate\n");
      else
        std::fprintf(stderr, "error: cannot save certificate to %s\n",
                     CertPath.c_str());
    }
    if (R.Result == Outcome::Timeout && !CheckpointPath.empty()) {
      if (R.Checkpoint && saveCheckpointFile(*R.Checkpoint, CheckpointPath))
        std::printf("checkpoint: %zu open nodes saved to %s\n",
                    R.Checkpoint->Open.size(), CheckpointPath.c_str());
      else
        std::fprintf(stderr, "error: cannot save checkpoint to %s\n",
                     CheckpointPath.c_str());
    }
    return R.Result == Outcome::Timeout ? 1 : 0;
  }

  if (Tool == "ai2-zonotope" || Tool == "ai2-bounded64") {
    Ai2Config AC =
        Tool == "ai2-zonotope" ? ai2Zonotope(Budget) : ai2Bounded64(Budget);
    Ai2Result R = ai2Verify(*Net, *Prop, AC);
    std::printf("%s: %s in %.3fs (margin %.6g)\n", Prop->Name.c_str(),
                toString(R.Result), R.Seconds, R.Margin);
    return R.Result == Ai2Outcome::Verified ? 0 : 1;
  }

  if (Tool == "reluval") {
    ReluValConfig RC;
    RC.TimeLimitSeconds = Budget;
    ReluValResult R = reluvalVerify(*Net, *Prop, RC);
    std::printf("%s: %s in %.3fs (%ld analyses, %ld splits)\n",
                Prop->Name.c_str(), toString(R.Result), R.Seconds,
                R.AnalyzeCalls, R.Splits);
    if (R.Result == Outcome::Falsified)
      printCex(*Net, R.Counterexample);
    return R.Result == Outcome::Timeout ? 1 : 0;
  }

  if (Tool == "reluplex") {
    ReluplexConfig PC;
    PC.TimeLimitSeconds = Budget;
    ReluplexResult R = reluplexVerify(*Net, *Prop, PC);
    std::printf("%s: %s in %.3fs (%ld nodes, %ld LPs)\n", Prop->Name.c_str(),
                toString(R.Result), R.Seconds, R.Nodes, R.LpSolves);
    if (R.Result == Outcome::Falsified)
      printCex(*Net, R.Counterexample);
    return R.Result == Outcome::Timeout ? 1 : 0;
  }

  std::fprintf(stderr, "error: unknown tool '%s'\n", Tool.c_str());
  return 2;
}
