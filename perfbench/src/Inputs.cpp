//===- Inputs.cpp - Pinned pools, networks and seeded draws ---------------===//

#include "Inputs.h"

#include "core/Digest.h"
#include "data/Benchmarks.h"
#include "nn/Io.h"
#include "onnx/OnnxImport.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <algorithm>
#include <map>
#include <sstream>
#include <sys/stat.h>

using namespace charon;
using namespace perfbench;

std::string Paths::onnxFixture() const {
  return Root + "/tests/onnx/fixtures/mixed.onnx";
}

VerifierConfig perfbench::benchConfig() {
  VerifierConfig C;
  C.TimeLimitSeconds = BudgetSeconds;
  return C;
}

//===----------------------------------------------------------------------===//
// Pool files
//===----------------------------------------------------------------------===//

namespace {

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

bool parseHex64(const std::string &S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  char *End = nullptr;
  Out = std::strtoull(S.c_str(), &End, 16);
  return End == S.c_str() + S.size();
}

std::optional<Outcome> parseOutcome(const std::string &S) {
  for (Outcome O : {Outcome::Verified, Outcome::Falsified, Outcome::Timeout})
    if (S == toString(O))
      return O;
  return std::nullopt;
}

std::string fmt17(double X) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  return Buf;
}

} // namespace

std::optional<PinnedPool> perfbench::readPool(const std::string &Path,
                                              std::string &Error) {
  std::ifstream Is(Path);
  if (!Is) {
    Error = "cannot read pool file " + Path;
    return std::nullopt;
  }
  PinnedPool Pool;
  std::string Line;
  int LineNo = 0;
  auto Bad = [&](const std::string &Why) {
    Error = Path + ":" + std::to_string(LineNo) + ": " + Why;
    return std::nullopt;
  };
  while (std::getline(Is, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Ls(Line);
    std::string Tag;
    Ls >> Tag;
    if (Tag == "net") {
      std::string Name, Fp;
      uint64_t V = 0;
      if (!(Ls >> Name >> Fp) || !parseHex64(Fp, V))
        return Bad("malformed net line");
      Pool.Fingerprints.emplace_back(Name, V);
    } else if (Tag == "prop") {
      PinnedProp P;
      std::string Digest, Verdict;
      size_t Dim = 0;
      if (!(Ls >> P.Net >> P.Name >> Digest >> Verdict >> P.Nodes >>
            P.Millis >> P.Label >> Dim) ||
          !parseHex64(Digest, P.Digest))
        return Bad("malformed prop line");
      auto O = parseOutcome(Verdict);
      if (!O || *O == Outcome::Timeout)
        return Bad("pinned verdict must be verified or falsified");
      P.Verdict = *O;
      if (Dim > 0) {
        Vector Lo(Dim), Hi(Dim);
        for (size_t I = 0; I < Dim; ++I)
          if (!(Ls >> Lo[I]))
            return Bad("short lower bound");
        for (size_t I = 0; I < Dim; ++I)
          if (!(Ls >> Hi[I]))
            return Bad("short upper bound");
        P.Region = Box(std::move(Lo), std::move(Hi));
      }
      Pool.Props.push_back(std::move(P));
    } else {
      return Bad("unknown record '" + Tag + "'");
    }
  }
  if (Pool.Props.empty())
    return Bad("pool has no properties");
  return Pool;
}

bool perfbench::writePool(const std::string &Path, const PinnedPool &Pool) {
  std::ofstream Os(Path);
  Os << "# perfbench pinned pool. Regenerate with `perfbench pin`; see\n"
        "# perfbench/README.md. net: name, fingerprintNetwork. prop: net,\n"
        "# name, digestProperty, verdict, nodes, ms when pinned, label,\n"
        "# stored box dimension (0 = regenerated), lower..., upper...\n";
  for (const auto &[Name, Fp] : Pool.Fingerprints)
    Os << "net " << Name << " " << hex64(Fp) << "\n";
  for (const PinnedProp &P : Pool.Props) {
    char Ms[32];
    std::snprintf(Ms, sizeof(Ms), "%.3f", P.Millis);
    Os << "prop " << P.Net << " " << P.Name << " " << hex64(P.Digest) << " "
       << toString(P.Verdict) << " " << P.Nodes << " " << Ms << " "
       << P.Label << " " << P.Region.dim();
    for (size_t I = 0; I < P.Region.dim(); ++I)
      Os << " " << fmt17(P.Region.lower()[I]);
    for (size_t I = 0; I < P.Region.dim(); ++I)
      Os << " " << fmt17(P.Region.upper()[I]);
    Os << "\n";
  }
  return static_cast<bool>(Os);
}

//===----------------------------------------------------------------------===//
// Corpora
//===----------------------------------------------------------------------===//

namespace {

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

size_t addNet(Corpus &C, std::string Name, std::string Path, Network Net) {
  auto E = std::make_unique<NetEntry>();
  E->Name = std::move(Name);
  E->Path = std::move(Path);
  E->Net = std::move(Net);
  E->Fingerprint = fingerprintNetwork(E->Net);
  C.Nets.push_back(std::move(E));
  return C.Nets.size() - 1;
}

/// The seven Fig. 6 suites and the seeded balls on the ONNX fixture. With
/// \p AllowTrain false a missing cached network is an error, so set-up
/// never trains.
bool imageCorpus(Corpus &C, const Paths &P, bool AllowTrain,
                 SetupTimes &Times, std::string &Error) {
  Stopwatch Data;
  for (SuiteConfig SC : paperSuiteConfigs(ImagePropsPerSuite)) {
    SC.CacheDir = P.Networks;
    std::string Path = P.Networks + "/" + SC.Name + ".net";
    if (!AllowTrain && !fileExists(Path)) {
      Error = "missing cached network " + Path + " (run prepare first)";
      return false;
    }
    BenchmarkSuite S = makeImageSuite(SC);
    size_t Net = addNet(C, S.Name, Path, std::move(S.Net));
    for (RobustnessProperty &Prop : S.Properties)
      C.Cases.push_back({Net, std::move(Prop)});
  }
  Times.DataLoad += Data.seconds();

  Stopwatch Import;
  onnx::ImportResult R = onnx::importModelFile(P.onnxFixture());
  Times.OnnxImport += Import.seconds();
  if (!R.Net) {
    Error = "cannot import " + P.onnxFixture() + ": " + R.Error;
    return false;
  }
  size_t Net = addNet(C, "mixed_onnx", P.onnxFixture(), std::move(*R.Net));
  const Network &N = C.Nets[Net]->Net;
  Rng Balls(OnnxBallSeed);
  for (int I = 0; I < OnnxBalls; ++I) {
    Vector Center(N.inputSize());
    for (size_t J = 0; J < Center.size(); ++J)
      Center[J] = Balls.uniform();
    double Eps = Balls.uniform(0.002, 0.03);
    RobustnessProperty Prop;
    Prop.Region = Box::linfBall(Center, Eps, 0.0, 1.0);
    Prop.TargetClass = N.classify(Prop.Region.center());
    Prop.Name = "mixed_onnx/p" + std::to_string(I);
    C.Cases.push_back({Net, std::move(Prop)});
  }
  return true;
}

std::string acasPath(const Paths &P) {
  return P.Networks + "/acas_6x50.net";
}

} // namespace

std::optional<Corpus> perfbench::generateCorpus(const std::string &Pool,
                                                const Paths &P,
                                                std::string &Error) {
  ::mkdir(P.Networks.c_str(), 0755);
  Corpus C;
  SetupTimes Ignored;
  if (Pool == "image") {
    if (!imageCorpus(C, P, /*AllowTrain=*/true, Ignored, Error))
      return std::nullopt;
  } else if (Pool == "acas") {
    BenchmarkSuite S = makeAcasSuite(AcasCandidates, AcasSuiteSeed,
                                     P.Networks);
    size_t Net = addNet(C, "acas_6x50", acasPath(P), std::move(S.Net));
    for (RobustnessProperty &Prop : S.Properties)
      C.Cases.push_back({Net, std::move(Prop)});
  } else {
    Error = "unknown pool '" + Pool + "'";
    return std::nullopt;
  }
  return C;
}

std::optional<Corpus> perfbench::loadPinned(const std::string &Pool,
                                            const Paths &P, SetupTimes &Times,
                                            std::string &Error) {
  Stopwatch Data;
  auto Pinned = readPool(P.Pinned + "/" + Pool + ".txt", Error);
  if (!Pinned)
    return std::nullopt;
  Corpus All;
  if (Pool == "image") {
    Times.DataLoad += Data.seconds();
    if (!imageCorpus(All, P, /*AllowTrain=*/false, Times, Error))
      return std::nullopt;
    Data.reset();
  } else if (Pool == "acas") {
    auto Net = loadNetworkFile(acasPath(P));
    if (!Net) {
      Error = "missing cached network " + acasPath(P) + " (run prepare first)";
      return std::nullopt;
    }
    size_t Id = addNet(All, "acas_6x50", acasPath(P), std::move(*Net));
    for (const PinnedProp &PP : Pinned->Props)
      All.Cases.push_back({Id, RobustnessProperty{PP.Region, PP.Label,
                                                  PP.Name}});
  } else {
    Error = "unknown pool '" + Pool + "'";
    return std::nullopt;
  }

  // Every network must be the one the pool was pinned against.
  std::map<std::string, size_t> NetByName;
  for (size_t I = 0; I < All.Nets.size(); ++I)
    NetByName[All.Nets[I]->Name] = I;
  for (const auto &[Name, Fp] : Pinned->Fingerprints) {
    auto It = NetByName.find(Name);
    if (It == NetByName.end()) {
      Error = "pool names unknown network " + Name;
      return std::nullopt;
    }
    if (All.Nets[It->second]->Fingerprint != Fp) {
      Error = "fingerprint mismatch for network " + Name + ": pinned " +
              hex64(Fp) + ", loaded " +
              hex64(All.Nets[It->second]->Fingerprint);
      return std::nullopt;
    }
  }

  std::map<std::string, size_t> CaseByName;
  for (size_t I = 0; I < All.Cases.size(); ++I)
    CaseByName[All.Cases[I].Prop.Name] = I;
  Corpus Out;
  Out.Nets = std::move(All.Nets);
  for (const PinnedProp &PP : Pinned->Props) {
    auto It = CaseByName.find(PP.Name);
    if (It == CaseByName.end()) {
      Error = "pinned property " + PP.Name + " was not generated";
      return std::nullopt;
    }
    Case C = All.Cases[It->second];
    if (Out.Nets[C.Net]->Name != PP.Net || digestProperty(C.Prop) != PP.Digest ||
        C.Prop.TargetClass != PP.Label) {
      Error = "property " + PP.Name + " differs from its pinned digest";
      return std::nullopt;
    }
    C.Expected = PP.Verdict;
    C.PinnedNodes = PP.Nodes;
    C.PinnedMillis = PP.Millis;
    Out.Cases.push_back(std::move(C));
  }
  Times.DataLoad += Data.seconds();
  return Out;
}

std::vector<size_t> perfbench::drawStratified(const std::vector<double> &Cost,
                                              size_t Count, uint64_t Seed,
                                              uint64_t Salt) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + Salt);
  size_t N = Cost.size();
  Count = std::min(Count, N);
  std::vector<size_t> ByCost(N);
  for (size_t I = 0; I < N; ++I)
    ByCost[I] = I;
  std::stable_sort(ByCost.begin(), ByCost.end(),
                   [&](size_t A, size_t B) { return Cost[A] < Cost[B]; });
  std::vector<size_t> Picks;
  for (size_t S = 0; S < Count; ++S) {
    size_t Begin = S * N / Count, End = (S + 1) * N / Count;
    Picks.push_back(ByCost[Begin + R.uniformInt(End - Begin)]);
  }
  for (size_t I = Picks.size(); I > 1; --I)
    std::swap(Picks[I - 1], Picks[R.uniformInt(I)]);
  return Picks;
}
