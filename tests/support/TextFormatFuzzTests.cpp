//===- TextFormatFuzzTests.cpp - Byte-mutation fuzzing of the text formats ----===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Every text format shares one reader (support/TextFormat.h). This test
// feeds each format mutated copies of a valid sample: a flipped bit, a
// deleted span, an inserted byte, a truncation, or a duplicated line. Each
// parse must either refuse the text or return a value that serializes to
// text which parses back to the same bytes. The mutations come from fixed
// seeds, so a failure names its format and trial and prints the text, and
// re-running the test replays it. The sanitize leg runs it under ASan and
// UBSan with asserts on.
//
//===----------------------------------------------------------------------===//

#include "cert/Certificate.h"
#include "core/PolicyIo.h"
#include "core/PropertyIo.h"
#include "fuzz/Repro.h"
#include "nn/Io.h"
#include "search/Checkpoint.h"
#include "service/ResultCache.h"
#include "support/Random.h"
#include "support/TextFormat.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>

using namespace charon;

namespace {

/// Parses a text and prints the parsed value back; nullopt when refused.
using Reprint = std::function<std::optional<std::string>(const std::string &)>;

/// A Reprint over a stream loader and its saver.
template <typename LoadFn, typename SaveFn>
Reprint streamed(LoadFn Load, SaveFn Save) {
  return [Load, Save](const std::string &Text) -> std::optional<std::string> {
    std::istringstream Is(Text);
    auto Value = Load(Is);
    if (!Value)
      return std::nullopt;
    std::ostringstream Os;
    Save(*Value, Os);
    return Os.str();
  };
}

SearchCheckpoint sampleCheckpoint() {
  SearchCheckpoint Cp;
  Cp.NetworkFingerprint = 0x1234;
  Cp.PropertyDigest = 0x5678;
  Cp.ConfigDigest = 0x9abc;
  Cp.Stats.PgdCalls = 3;
  Cp.Stats.Splits = 1;
  Cp.Stats.Seconds = 0.25;
  for (uint8_t Bit : {0, 1}) {
    CheckpointNode N;
    N.Path = {Bit};
    N.Region = Box(Vector{0.5 * Bit, 0.0}, Vector{0.5 + 0.5 * Bit, 1.0});
    N.Priority = -0.125 * (Bit + 1);
    if (Bit == 0)
      N.Warm = Vector{0.25, 1.0 / 3.0};
    Cp.Open.push_back(std::move(N));
  }
  return Cp;
}

/// A split root with a verified, a falsified and a pruned leaf below it.
ProofCertificate sampleCertificate() {
  ProofCertificate Cert;
  Cert.Verdict = Outcome::Falsified;
  Cert.Delta = 1e-6;
  Cert.NetworkFingerprint = 7;
  Cert.PropertyDigest = 8;
  Cert.ConfigDigest = 9;
  Cert.Dim = 2;
  Cert.TargetClass = 1;
  CertNode Root;
  Root.Region = Box::uniform(2, 0.0, 1.0);
  Root.Kind = CertNodeKind::Split;
  Root.SplitDim = 0;
  Root.SplitCut = 0.5;
  CertNode Lower;
  Lower.Path = {0};
  Lower.Region = Box(Vector{0.0, 0.0}, Vector{0.5, 1.0});
  Lower.Kind = CertNodeKind::Split;
  Lower.SplitDim = 1;
  Lower.SplitCut = 0.5;
  CertNode Proved;
  Proved.Path = {0, 0};
  Proved.Region = Box(Vector{0.0, 0.0}, Vector{0.5, 0.5});
  Proved.Kind = CertNodeKind::Verified;
  Proved.Domain = {BaseDomainKind::Zonotope, 2};
  Proved.Margin = 0.0625;
  CertNode Skipped;
  Skipped.Path = {0, 1};
  Skipped.Region = Box(Vector{0.0, 0.5}, Vector{0.5, 1.0});
  CertNode Refuted;
  Refuted.Path = {1};
  Refuted.Region = Box(Vector{0.5, 0.0}, Vector{1.0, 1.0});
  Refuted.Kind = CertNodeKind::Falsified;
  Refuted.Cex = Vector{0.75, 0.1};
  Refuted.CexObjective = -1.25e-3;
  Cert.Nodes = {Root, Lower, Proved, Skipped, Refuted};
  return Cert;
}

CacheRecord sampleRecord() {
  CacheRecord Rec;
  Rec.Key = {11, 12, 13};
  Rec.Region = Box::uniform(2, 0.0, 1.0);
  Rec.TargetClass = 1;
  Rec.Result.Result = Outcome::Falsified;
  Rec.Result.Counterexample = Vector{0.75, 0.1};
  Rec.Result.ObjectiveAtCex = -1.25e-3;
  Rec.Result.Stats.NodesExpanded = 5;
  Rec.Result.Stats.Seconds = 0.1;
  Rec.Result.Certificate =
      std::make_shared<const ProofCertificate>(sampleCertificate());
  Rec.Result.Checkpoint =
      std::make_shared<const SearchCheckpoint>(sampleCheckpoint());
  return Rec;
}

FuzzRepro sampleRepro() {
  FuzzRepro Repro;
  Repro.CampaignSeed = 42;
  Repro.CaseIndex = 7;
  Repro.Oracle = "containment:Zonotope";
  Repro.Message = "output 1 escapes [0.25, 0.75] at x = [0.5]";
  Repro.Cfg.InjectTighten = 0.125;
  Repro.Domains = {{BaseDomainKind::Interval, 1},
                   {BaseDomainKind::Zonotope, 2}};
  Repro.Net.WeightSeed = 99;
  Repro.Net.Inputs = 3;
  Repro.Net.Outputs = 2;
  Repro.Net.Hidden = {4, 4};
  Repro.Net.Act = ActivationKind::Tanh;
  Repro.Net.WithResidual = true;
  Repro.Prop.Region = Box::uniform(3, 0.25, 0.75);
  Repro.Prop.TargetClass = 1;
  Repro.Prop.Name = "fuzz-42-7";
  return Repro;
}

/// One seeded mutation of \p Text: a flipped bit, a deleted span, an
/// inserted byte, a truncation, or a duplicated line.
std::string mutate(std::string Text, Rng &R) {
  if (Text.empty())
    return Text;
  size_t Pos = R.uniformInt(Text.size());
  switch (R.uniformInt(5)) {
  case 0:
    Text[Pos] = static_cast<char>(Text[Pos] ^ (1 << R.uniformInt(8)));
    break;
  case 1:
    Text.erase(Pos, 1 + R.uniformInt(4));
    break;
  case 2:
    Text.insert(Pos, 1, static_cast<char>(R.uniformInt(256)));
    break;
  case 3:
    Text.resize(Pos);
    break;
  default: {
    size_t Begin = Text.rfind('\n', Pos);
    Begin = Begin == std::string::npos ? 0 : Begin + 1;
    size_t End = Text.find('\n', Pos);
    End = End == std::string::npos ? Text.size() : End + 1;
    Text.insert(End, Text.substr(Begin, End - Begin));
    break;
  }
  }
  return Text;
}

} // namespace

TEST(TextFormatFuzzTest, MutantsAreRefusedOrReprintStably) {
  const char *Conv = "charon-network 1 5\n"
                     "conv 1 4 4 2 3 3 1 1\n"
                     "0.5 -0.25 0.125 1 0 -1 0.75 0.5 0.25 -0.5 0.25 -0.125 "
                     "-1 0 1 -0.75 -0.5 -0.25 \n0.5 -0.5 \n"
                     "relu 32\nmaxpool 2 4 4 2 2 2\navgpool 2 2 2 2 2 1\n"
                     "dense 2 2\n1 -1 \n0.5 2 \n0 0.25 \n";
  const char *Residual = "charon-network 1 5\n"
                         "dense 2 3\n0.5 -0.25 \n0.125 1 \n-1 0.75 \n"
                         "0.5 0.25 -0.30000000000000004 \n"
                         "residual 2\ndense 3 3\n1 0 0 \n0 1 0 \n0 0 -1 \n"
                         "0 0 0 \nsigmoid 3\n"
                         "flatten 3\ntanh 3\n"
                         "dense 3 2\n1 2 3 \n4 5 6 \n-0 4.9406564584124654e-324 \n";
  struct Sample {
    const char *Format;
    std::string Text;
    Reprint Parse;
  };
  RobustnessProperty Prop = sampleRepro().Prop;
  std::ostringstream PropText, PolicyText, ReproText, RecordText;
  saveProperty(Prop, PropText);
  savePolicy(VerificationPolicy(), PolicyText);
  saveRepro(sampleRepro(), ReproText);
  writeCacheRecord(RecordText, sampleRecord());
  const Reprint Net = streamed(loadNetwork, saveNetwork);
  const Sample Samples[] = {
      {"net", Conv, Net},
      {"net", Residual, Net},
      {"prop", PropText.str(), streamed(loadProperty, saveProperty)},
      {"policy", PolicyText.str(), streamed(loadPolicy, savePolicy)},
      {"checkpoint", serializeCheckpoint(sampleCheckpoint()),
       streamed(loadCheckpoint, saveCheckpoint)},
      {"certificate", serializeCertificate(sampleCertificate()),
       streamed(loadCertificate, saveCertificate)},
      {"cache record", RecordText.str(),
       [](const std::string &Text) -> std::optional<std::string> {
         TextReader R(Text);
         std::optional<CacheRecord> Rec = readCacheRecord(R);
         if (!Rec)
           return std::nullopt;
         std::ostringstream Os;
         writeCacheRecord(Os, *Rec);
         return Os.str();
       }},
      {"repro", ReproText.str(), streamed(loadRepro, saveRepro)},
  };
  constexpr int Trials = 15000;
  for (size_t S = 0; S < std::size(Samples); ++S) {
    const Sample &F = Samples[S];
    SCOPED_TRACE(F.Format);
    // The sample itself must reprint to its own bytes.
    std::optional<std::string> Pristine = F.Parse(F.Text);
    ASSERT_TRUE(Pristine.has_value());
    ASSERT_EQ(*Pristine, F.Text);
    Rng R(1000 + S);
    int Accepted = 0;
    for (int Trial = 0; Trial < Trials; ++Trial) {
      std::string Mutant = mutate(F.Text, R);
      std::optional<std::string> Once = F.Parse(Mutant);
      if (!Once)
        continue;
      ++Accepted;
      std::optional<std::string> Twice = F.Parse(*Once);
      ASSERT_TRUE(Twice.has_value())
          << "seed " << 1000 + S << ", trial " << Trial << ", mutant:\n"
          << Mutant;
      ASSERT_EQ(*Twice, *Once) << "seed " << 1000 + S << ", trial " << Trial
                               << ", mutant:\n"
                               << Mutant;
    }
    // Some mutants (a digit for a digit, a duplicated trailing line) stay
    // valid, so both paths above are taken.
    EXPECT_GT(Accepted, 0);
    EXPECT_LT(Accepted, Trials);
  }
}
