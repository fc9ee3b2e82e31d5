//===- IoTests.cpp - Policy/property serialization tests ----------------------===//

#include "core/PolicyIo.h"
#include "core/PropertyIo.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace charon;

//===----------------------------------------------------------------------===//
// Policy serialization
//===----------------------------------------------------------------------===//

TEST(PolicyIoTest, RoundTripPreservesParameters) {
  Vector Flat(VerificationPolicy::numParameters());
  for (size_t I = 0; I < Flat.size(); ++I)
    Flat[I] = 0.1 * static_cast<double>(I) - 1.0;
  VerificationPolicy P = VerificationPolicy::fromFlat(Flat);

  std::stringstream Ss;
  savePolicy(P, Ss);
  auto Loaded = loadPolicy(Ss);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(approxEqual(Loaded->flatten(), Flat, 0.0));
}

TEST(PolicyIoTest, RejectsBadMagic) {
  std::stringstream Ss("not-a-policy 1 5 5");
  EXPECT_FALSE(loadPolicy(Ss).has_value());
}

TEST(PolicyIoTest, RejectsWrongShape) {
  std::stringstream Ss("charon-policy 1 3 3\n1 2 3 4 5 6 7 8 9\n");
  EXPECT_FALSE(loadPolicy(Ss).has_value());
}

TEST(PolicyIoTest, RejectsTruncated) {
  VerificationPolicy P;
  std::stringstream Ss;
  savePolicy(P, Ss);
  std::string Text = Ss.str();
  std::stringstream Truncated(Text.substr(0, Text.size() - 20));
  EXPECT_FALSE(loadPolicy(Truncated).has_value());
}

TEST(PolicyIoTest, ReserializationIsByteIdentical) {
  // serialize -> parse -> serialize must reproduce the exact bytes:
  // setprecision(17) prints doubles losslessly, so the parsed policy is the
  // same object and prints the same text.
  Vector Flat(VerificationPolicy::numParameters());
  for (size_t I = 0; I < Flat.size(); ++I)
    Flat[I] = 1.0 / 3.0 + 0.017 * static_cast<double>(I);
  VerificationPolicy P = VerificationPolicy::fromFlat(Flat);

  std::stringstream First;
  savePolicy(P, First);
  auto Loaded = loadPolicy(First);
  ASSERT_TRUE(Loaded.has_value());
  std::stringstream Second;
  savePolicy(*Loaded, Second);
  EXPECT_EQ(First.str(), Second.str());
}

TEST(PolicyIoTest, RejectsWrongVersion) {
  VerificationPolicy P;
  std::stringstream Ss;
  savePolicy(P, Ss);
  std::string Text = Ss.str();
  size_t Pos = Text.find("charon-policy 1");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 15, "charon-policy 2");
  std::stringstream Mutated(Text);
  EXPECT_FALSE(loadPolicy(Mutated).has_value());
}

TEST(PolicyIoTest, RejectsNonNumericParameters) {
  VerificationPolicy P;
  std::stringstream Ss;
  savePolicy(P, Ss);
  std::string Text = Ss.str();
  // Corrupt the first parameter value (the line after the header).
  size_t Pos = Text.find('\n') + 1;
  Text.replace(Pos, 1, "x");
  std::stringstream Mutated(Text);
  EXPECT_FALSE(loadPolicy(Mutated).has_value());
}

TEST(PolicyIoTest, FileRoundTrip) {
  VerificationPolicy P;
  const char *Path = "/tmp/charon-test-policy.txt";
  ASSERT_TRUE(savePolicyFile(P, Path));
  auto Loaded = loadPolicyFile(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(approxEqual(Loaded->flatten(), P.flatten(), 0.0));
  EXPECT_FALSE(loadPolicyFile("/tmp/does-not-exist-charon.txt").has_value());
}

//===----------------------------------------------------------------------===//
// Property serialization
//===----------------------------------------------------------------------===//

TEST(PropertyIoTest, RoundTrip) {
  RobustnessProperty Prop;
  Prop.Region = Box(Vector{0.25, -1.0}, Vector{0.75, 2.0});
  Prop.TargetClass = 3;
  Prop.Name = "my-prop";

  std::stringstream Ss;
  saveProperty(Prop, Ss);
  auto Loaded = loadProperty(Ss);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->Name, "my-prop");
  EXPECT_EQ(Loaded->TargetClass, 3u);
  EXPECT_TRUE(approxEqual(Loaded->Region.lower(), Prop.Region.lower(), 0.0));
  EXPECT_TRUE(approxEqual(Loaded->Region.upper(), Prop.Region.upper(), 0.0));
}

TEST(PropertyIoTest, ReserializationIsByteIdentical) {
  RobustnessProperty Prop;
  // Awkward doubles: only lossless printing survives two serializations.
  Prop.Region = Box(Vector{1.0 / 3.0, -2.0 / 7.0, 1e-17},
                    Vector{2.0 / 3.0, 0.1 + 0.2, 1.0});
  Prop.TargetClass = 2;
  Prop.Name = "byte-identity";

  std::stringstream First;
  saveProperty(Prop, First);
  auto Loaded = loadProperty(First);
  ASSERT_TRUE(Loaded.has_value());
  std::stringstream Second;
  saveProperty(*Loaded, Second);
  EXPECT_EQ(First.str(), Second.str());

  // The empty name serializes as "unnamed" and stays stable from then on.
  RobustnessProperty Anonymous;
  Anonymous.Region = Box::uniform(1, 0.0, 1.0);
  std::stringstream A1;
  saveProperty(Anonymous, A1);
  auto Back = loadProperty(A1);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Name, "unnamed");
  std::stringstream A2;
  saveProperty(*Back, A2);
  EXPECT_EQ(A1.str(), A2.str());
}

TEST(PropertyIoTest, RejectsWrongVersion) {
  std::stringstream Ss("charon-property 2\nname x\ntarget 0\ndim 1\n"
                       "lower 0.0\nupper 1.0\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}

TEST(PropertyIoTest, RejectsNonNumericBounds) {
  std::stringstream Ss("charon-property 1\nname x\ntarget 0\ndim 2\n"
                       "lower 0.0 oops\nupper 1.0 1.0\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}

TEST(PropertyIoTest, RejectsMissingUpperBlock) {
  std::stringstream Ss("charon-property 1\nname x\ntarget 0\ndim 2\n"
                       "lower 0.0 0.0\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}

TEST(PropertyIoTest, RejectsInvertedBounds) {
  std::stringstream Ss("charon-property 1\nname x\ntarget 0\ndim 1\n"
                       "lower 2.0\nupper 1.0\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}

TEST(PropertyIoTest, RejectsZeroDim) {
  std::stringstream Ss(
      "charon-property 1\nname x\ntarget 0\ndim 0\nlower\nupper\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}

TEST(PropertyIoTest, RejectsDimBeyondText) {
  // The dim claims far more bounds than the text holds: refused before it
  // sizes the bound vectors.
  std::stringstream Ss("charon-property 1\nname p\ntarget 0\n"
                       "dim 100000000000000\nlower 0\n");
  EXPECT_FALSE(loadProperty(Ss).has_value());
  // One bound short of two lists of dim values.
  std::stringstream Short("charon-property 1\nname p\ntarget 0\ndim 3\n"
                          "lower 0 0 0\nupper 1 1");
  EXPECT_FALSE(loadProperty(Short).has_value());
}

TEST(PropertyIoTest, RejectsGarbage) {
  std::stringstream Ss("hello world");
  EXPECT_FALSE(loadProperty(Ss).has_value());
}
