//===- IoFuzzTests.cpp - Robustness of the network parser ----------------------===//
//
// The loader consumes hand-editable text files (charon_cli feeds it user
// input), so it must reject arbitrary corruption gracefully — returning
// nullopt, never crashing or constructing an inconsistent network.
//
//===----------------------------------------------------------------------===//

#include "cert/Certificate.h"
#include "core/PolicyIo.h"
#include "core/PropertyIo.h"
#include "fuzz/Repro.h"
#include "nn/Builder.h"
#include "nn/Conv2D.h"
#include "nn/Io.h"
#include "search/Checkpoint.h"
#include "service/ResultCache.h"
#include "support/Random.h"
#include "support/TextFormat.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <streambuf>
#include <string>

using namespace charon;

namespace {

std::string serialize(const Network &Net) {
  std::stringstream Ss;
  saveNetwork(Net, Ss);
  return Ss.str();
}

/// A read-only stream buffer that cannot seek, like a pipe's.
class PipeBuf : public std::streambuf {
public:
  explicit PipeBuf(std::string Text) : Text(std::move(Text)) {
    char *Begin = this->Text.data();
    setg(Begin, Begin, Begin + this->Text.size());
  }

private:
  std::string Text;
};

/// Tries to load \p Text; on success the result must be a structurally
/// coherent network (evaluation does not trip assertions).
void loadAndExercise(const std::string &Text) {
  std::stringstream Ss(Text);
  auto Net = loadNetwork(Ss);
  if (!Net)
    return;
  // Parsed networks must be evaluable end to end.
  Vector X(Net->inputSize(), 0.5);
  Vector Y = Net->evaluate(X);
  EXPECT_EQ(Y.size(), Net->outputSize());
}

} // namespace

TEST(IoFuzzTest, TruncationsNeverCrash) {
  Rng R(1);
  Network Net = makeMlp(4, {6, 6}, 3, R);
  std::string Text = serialize(Net);
  for (size_t Len = 0; Len < Text.size(); Len += 13)
    loadAndExercise(Text.substr(0, Len));
}

TEST(IoFuzzTest, ByteFlipsNeverCrash) {
  Rng R(2);
  Network Net = makeMlp(3, {5}, 2, R);
  std::string Text = serialize(Net);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Mutated = Text;
    size_t Pos = R.uniformInt(Mutated.size());
    Mutated[Pos] = static_cast<char>('!' + R.uniformInt(90));
    loadAndExercise(Mutated);
  }
}

TEST(IoFuzzTest, ConvTruncationsNeverCrash) {
  Rng R(3);
  Network Net = makeLeNet(TensorShape{1, 6, 6}, 3, R);
  std::string Text = serialize(Net);
  for (size_t Len = 0; Len < Text.size(); Len += 101)
    loadAndExercise(Text.substr(0, Len));
}

TEST(IoFuzzTest, LayerCountMismatchRejected) {
  Rng R(4);
  Network Net = makeMlp(3, {4}, 2, R);
  std::string Text = serialize(Net);
  // Claim more layers than are present.
  size_t Pos = Text.find(" 3\n");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 3, " 9\n");
  std::stringstream Ss(Text);
  EXPECT_FALSE(loadNetwork(Ss).has_value());
}

TEST(IoFuzzTest, ZeroLayerNetworksRejected) {
  // A network without layers has no input or output size, which every tool
  // asks for before it reads the property.
  for (const std::string &Text :
       {serialize(Network()), std::string("charon-network 1 0\nrelu 2\n")}) {
    std::stringstream Ss(Text);
    EXPECT_FALSE(loadNetwork(Ss).has_value()) << Text;
  }
}

TEST(IoFuzzTest, OversizedCountsRejected) {
  // Each count claims far more values than the text holds, or a kernel
  // larger than its padded input: the loader must refuse it before it
  // sizes an allocation or builds a layer.
  const char *Texts[] = {
      "charon-network 1 1\ndense 100000000000 100000000000\n",
      "charon-network 1 1\ndense 3 100000000000000\n0 0 0\n",
      "charon-network 1 100000000000000\nrelu 2\n",
      "charon-network 1 1\nresidual 100000000000000\nrelu 2\n",
      "charon-network 1 1\nconv 1 4 4 2000000000 3 3 1 0\n0\n",
      "charon-network 1 1\nconv 1 4 4 1 9 9 1 0\n0\n",
      // Shapes the values fit but memory does not (windowShapeFits): a
      // residual body whose validation builds a 9e6 x 9e6 lowering, a flat
      // input above INT_MAX, and a max-pool with a 1e10-entry window table.
      "charon-network 1 1\nresidual 1\nconv 1 3000 3000 1 1 1 1 0\n0.5\n0.1\n",
      "charon-network 1 1\nconv 1 50000 50000 1 1 1 1 0\n0.5\n0.1\n",
      "charon-network 1 1\nmaxpool 1 100000 100000 1 1 1\n",
      "charon-network 1 1\navgpool 1 100000 100000 1 1 1\n",
  };
  for (const char *Text : Texts) {
    std::stringstream Ss(Text);
    EXPECT_FALSE(loadNetwork(Ss).has_value()) << Text;
  }
}

TEST(IoFuzzTest, WindowShapeFitsBoundsEveryDerivedTable) {
  // Decided from the shape alone: nothing here is constructed, so a wrong
  // answer cannot allocate.
  using WK = WindowKind;
  // mnist_conv's largest convolution and its pool are far inside the limit.
  EXPECT_TRUE(windowShapeFits(WK::Conv, {8, 10, 10}, 8, 3, 3, 1, 1));
  EXPECT_TRUE(windowShapeFits(WK::MaxPool, {8, 10, 10}, 8, 2, 2, 2, 0));
  // A max-pool's window table at the limit, and one input column past it.
  EXPECT_TRUE(windowShapeFits(WK::MaxPool, {1, 4096, 8192}, 1, 1, 1, 1, 0));
  EXPECT_FALSE(windowShapeFits(WK::MaxPool, {1, 4096, 8193}, 1, 1, 1, 1, 0));
  // A conv lowering at the limit (2^12 outputs x 2^13 inputs), one output
  // channel past it, and an avgpool lowering inside it.
  EXPECT_TRUE(windowShapeFits(WK::Conv, {2, 64, 64}, 4, 2, 2, 2, 0));
  EXPECT_FALSE(windowShapeFits(WK::Conv, {2, 64, 64}, 5, 2, 2, 2, 0));
  EXPECT_TRUE(windowShapeFits(WK::AvgPool, {2, 64, 64}, 2, 2, 2, 2, 0));
  // A tiny lowering over an ~2^26-position padded input plane.
  EXPECT_FALSE(windowShapeFits(WK::Conv, {1, 1, 1}, 1, 1, 1, 8192, 4096));
  // Flat sizes beyond int, on either side.
  EXPECT_FALSE(windowShapeFits(WK::MaxPool, {2, 32768, 32768}, 2, 32768,
                               32768, 1, 0));
  EXPECT_FALSE(windowShapeFits(WK::Conv, {1, 1, 1}, INT_MAX, 1, 1, 1, 1));
  // Degenerate shapes.
  EXPECT_FALSE(windowShapeFits(WK::Conv, {1, 4, 4}, 1, 9, 9, 1, 0));
  EXPECT_FALSE(windowShapeFits(WK::Conv, {1, 4, 4}, 1, 3, 3, 0, 0));
  EXPECT_FALSE(windowShapeFits(WK::Conv, {1, 4, 4}, 1, 3, 3, 1, -1));
  EXPECT_FALSE(windowShapeFits(WK::MaxPool, {0, 4, 4}, 0, 2, 2, 2, 0));
}

TEST(IoFuzzTest, UnseekableStreamsAreCheckedToo) {
  // A stream that cannot report the bytes left is parsed from a copy, so
  // it loads the same networks and refuses the same counts.
  Rng R(7);
  std::string Text = serialize(makeMlp(4, {5}, 2, R));
  PipeBuf Buf(Text);
  std::istream Is(&Buf);
  auto Loaded = loadNetwork(Is);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(serialize(*Loaded), Text);
  PipeBuf Huge("charon-network 1 1\ndense 100000000000 100000000000\n");
  std::istream Hs(&Huge);
  EXPECT_FALSE(loadNetwork(Hs).has_value());
}

TEST(IoFuzzTest, RandomGarbageRejected) {
  Rng R(5);
  for (int Trial = 0; Trial < 100; ++Trial) {
    std::string Garbage;
    size_t Len = R.uniformInt(200);
    for (size_t I = 0; I < Len; ++I)
      Garbage.push_back(static_cast<char>(' ' + R.uniformInt(95)));
    loadAndExercise(Garbage);
  }
}

TEST(IoFuzzTest, DoubleRoundTripIsIdentity) {
  Rng R(6);
  Network Net = makeMlp(5, {7, 7}, 4, R);
  std::string Once = serialize(Net);
  std::stringstream Ss(Once);
  auto Loaded = loadNetwork(Ss);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(serialize(*Loaded), Once);

  // The number grammar every text format shares (support/TextFormat.h): a
  // double printed at 17 or at 9 significant digits reads to the bits
  // operator>> gives, subnormals and -0 included.
  auto SameBits = [](const std::string &Tok) {
    double Ours = 1.0, Theirs = 2.0;
    std::istringstream Is(Tok);
    ASSERT_TRUE(Is >> Theirs) << Tok;
    ASSERT_TRUE(parseNumber(Tok, Ours)) << Tok;
    EXPECT_EQ(std::memcmp(&Ours, &Theirs, sizeof(double)), 0) << Tok;
  };
  char Buf[64];
  for (int I = 0; I < 20000; ++I) {
    // Every exponent, subnormals included, and ordinary weights.
    uint64_t Bits = R.next();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    if (!std::isfinite(V) || I % 2)
      V = R.gaussian();
    for (const char *Fmt : {"%.17g", "%.9g"}) {
      std::snprintf(Buf, sizeof(Buf), Fmt, V);
      SameBits(Buf);
    }
  }
  for (const char *Tok : {"4.9406564584124654e-324", "2.2250738585072009e-308",
                          "1e-310", "-0", "0", "1.", ".5", "1E5"})
    SameBits(Tok);
  double Plus = 0.0;
  EXPECT_TRUE(parseNumber("+1.5", Plus));
  EXPECT_EQ(Plus, 1.5);

  // Each format with one double ({v}) and one count ({n}); the good values
  // parse, and every value below is refused in its place.
  auto Parses = [](auto Load) {
    return [Load](const std::string &Text) {
      std::istringstream Is(Text);
      return Load(Is).has_value();
    };
  };
  std::string Policy = "charon-policy 1 {n} 5\n{v}";
  for (int I = 1; I < 25; ++I)
    Policy += " 0.5";
  struct Format {
    const char *Name;
    std::string Text, GoodValue, GoodCount;
    std::function<bool(const std::string &)> Parse;
  };
  const Format Formats[] = {
      {"net", "charon-network 1 {n}\ndense 2 2\n0.5 -0.25\n{v} 1\n0.1 0.2\n",
       "0.125", "1", Parses(loadNetwork)},
      {"prop",
       "charon-property 1\nname p\ntarget 0\ndim {n}\nlower 0 0\nupper 1 {v}\n",
       "1", "2", Parses(loadProperty)},
      {"policy", Policy, "0.5", "5", Parses(loadPolicy)},
      {"checkpoint",
       "charon-checkpoint 1\norder lifo\nnetwork 1 property 2 config 3\n"
       "stats 0 0 0 0 0 0 0 0 0\ndim 1\nopen {n}\nnode - {v}\nlower 0\n"
       "upper 1\nwarm 0\nend\n",
       "-0.5", "1", Parses(loadCheckpoint)},
      {"certificate",
       "charon-cert 1\nverdict verified\nnetwork 1 property 2 config 3\n"
       "delta 1e-06\ndim 1 class 0\nnodes {n}\n"
       "node - verified zonotope 1 {v}\nlower 0\nupper 1\nend\n",
       "0.5", "1", Parses(loadCertificate)},
      {"cache record",
       "entry 1 2 3 0\nregion {n}\nlower 0\nupper {v}\nresult verified 0\n"
       "cex 0\nstats 0 0 0 0 0 0 0 0 0 0 0 0 0\ncert 0\ncheckpoint 0\nend\n",
       "1", "1",
       [](const std::string &Text) {
         TextReader R(Text);
         return readCacheRecord(R).has_value();
       }},
      {"repro",
       "charon-fuzz-repro 1\ncampaign-seed 9\ncase 5\nexpect clean\n"
       "oracle -\nmessage -\nsamples 24\nsubregions 3\ntolerance {v}\n"
       "delta 1e-06\nbudget 1\nverifier-seed 7\ninject 0\n"
       "domains {n} Interval\nnetwork mlp 5 2 2 1 3\ncharon-property 1\n"
       "name p\ntarget 0\ndim 2\nlower 0 0\nupper 1 1\n",
       "1e-07", "1", Parses(loadRepro)},
  };
  auto Fill = [](std::string Text, const std::string &V, const std::string &N) {
    Text.replace(Text.find("{v}"), 3, V);
    Text.replace(Text.find("{n}"), 3, N);
    return Text;
  };
  for (const Format &F : Formats) {
    SCOPED_TRACE(F.Name);
    EXPECT_TRUE(F.Parse(Fill(F.Text, F.GoodValue, F.GoodCount)));
    for (const std::string &Bad : {std::string("inf"), std::string("-inf"),
                                   std::string("nan"), std::string("0x1p3"),
                                   std::string("1e400"), std::string("1e-400"),
                                   F.GoodValue + "x"})
      EXPECT_FALSE(F.Parse(Fill(F.Text, Bad, F.GoodCount))) << Bad;
    for (const std::string &Bad :
         {"+" + F.GoodCount, "-" + F.GoodCount, F.GoodCount + "x"})
      EXPECT_FALSE(F.Parse(Fill(F.Text, F.GoodValue, Bad))) << Bad;
  }
}
