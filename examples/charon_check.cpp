//===- charon_check.cpp - Standalone proof-certificate checker -----------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Re-validates a proof certificate emitted by `charon_cli --cert` (or the
// service layer) against the network and property it claims to decide,
// without running any search: split nodes are checked to tile their
// parents, verified leaves are replayed through the abstract analyzer,
// and counterexamples are replayed through the concrete engine.
//
//   charon_check <network.net> <property.prop> <certificate.cert> [options]
//
// Options:
//   --margin-slack <s>     accept recomputed margin + s >= recorded (0)
//   --objective-slack <s>  accept recomputed objective <= delta + s (0)
//                          (each slack a finite number >= 0)
//   --quiet                print only the verdict line
//
// Exit code: 0 when the certificate is accepted, 1 when rejected,
// 2 on usage or load errors.
//
//===----------------------------------------------------------------------===//

#include "cert/CertChecker.h"
#include "cert/Certificate.h"
#include "core/Digest.h"
#include "core/PropertyIo.h"
#include "nn/Io.h"
#include "support/TextFormat.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace charon;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <network.net> <property.prop> <certificate.cert> "
               "[--margin-slack S] [--objective-slack S] [--quiet]\n",
               Argv0);
  std::exit(2);
}

/// A slack must be a finite number >= 0: a nan or infinite slack would
/// make obligations 4 and 5 accept anything.
double slackArg(const char *Arg, const char *Argv0) {
  double S = 0.0;
  if (!parseNumber(Arg, S) || !(S >= 0.0))
    usage(Argv0);
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 4)
    usage(Argv[0]);

  CertCheckConfig Cfg;
  bool Quiet = false;
  for (int I = 4; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--margin-slack") && I + 1 < Argc)
      Cfg.MarginSlack = slackArg(Argv[++I], Argv[0]);
    else if (!std::strcmp(Argv[I], "--objective-slack") && I + 1 < Argc)
      Cfg.ObjectiveSlack = slackArg(Argv[++I], Argv[0]);
    else if (!std::strcmp(Argv[I], "--quiet"))
      Quiet = true;
    else
      usage(Argv[0]);
  }

  auto Net = loadNetworkFile(Argv[1]);
  if (!Net) {
    std::fprintf(stderr, "error: cannot load network from %s\n", Argv[1]);
    return 2;
  }
  auto Prop = loadPropertyFile(Argv[2]);
  if (!Prop) {
    std::fprintf(stderr, "error: cannot load property from %s\n", Argv[2]);
    return 2;
  }
  auto Cert = loadCertificateFile(Argv[3]);
  if (!Cert) {
    std::fprintf(stderr, "error: cannot parse certificate from %s\n", Argv[3]);
    return 2;
  }

  Stopwatch Watch;
  CertCheckReport Report = checkCertificate(*Net, *Prop, *Cert, Cfg);
  double Seconds = Watch.seconds();

  std::printf("%s: %s certificate (%s) %s in %.3fs\n", Prop->Name.c_str(),
              Cert->Verdict == Outcome::Verified ? "verified" : "falsified",
              Argv[3], Report.Accepted ? "ACCEPTED" : "REJECTED", Seconds);
  if (!Quiet) {
    std::printf("  %zu nodes: %ld splits, %ld verified leaves, "
                "%ld falsified leaves, %ld pruned\n",
                Cert->Nodes.size(), Report.SplitNodes, Report.VerifiedLeaves,
                Report.FalsifiedLeaves, Report.PrunedNodes);
    std::printf("  re-derived: %ld abstract analyses, %ld counterexample "
                "replays\n",
                Report.Reanalyses, Report.CexReplays);
    if (Cert->ConfigDigest != 0 &&
        Cert->NetworkFingerprint == fingerprintNetwork(*Net))
      std::printf("  config digest %llu (informational: proofs hold across "
                  "configs)\n",
                  static_cast<unsigned long long>(Cert->ConfigDigest));
    for (const std::string &E : Report.Errors)
      std::printf("  error: %s\n", E.c_str());
  }
  return Report.Accepted ? 0 : 1;
}
