//===- CheckpointNegativeTests.cpp - Checkpoint parser rejection paths --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// loadCheckpoint must return nullopt — never a partially filled or
// silently repaired checkpoint — on every class of malformed input:
// truncation at any line boundary, corrupted magic/keywords/digest values,
// non-numeric doubles, inverted region bounds, warm-start size mismatches,
// counts larger than the remaining text, and duplicate node paths (two
// frontier entries with the same path can never come from the engine,
// whose paths identify nodes and seed their RNG streams).
//
//===----------------------------------------------------------------------===//

#include "search/Checkpoint.h"

#include <gtest/gtest.h>

#include <string>

using namespace charon;

namespace {

/// A small well-formed two-node checkpoint built by hand.
SearchCheckpoint sampleCheckpoint() {
  SearchCheckpoint Cp;
  Cp.Order = FrontierOrder::Lifo;
  Cp.NetworkFingerprint = 0x1234;
  Cp.PropertyDigest = 0x5678;
  Cp.ConfigDigest = 0x9abc;
  Cp.Stats.PgdCalls = 3;
  Cp.Stats.AnalyzeCalls = 3;
  Cp.Stats.Splits = 1;
  Cp.Stats.MaxDepth = 1;
  Cp.Stats.NodesExpanded = 1;
  Cp.Stats.Seconds = 0.25;

  CheckpointNode Lo;
  Lo.Path = {0};
  Lo.Region = Box(Vector{0.0, 0.0}, Vector{0.5, 1.0});
  Lo.Priority = -0.125;
  Lo.Warm = Vector{0.25, 0.75};
  CheckpointNode Hi;
  Hi.Path = {1};
  Hi.Region = Box(Vector{0.5, 0.0}, Vector{1.0, 1.0});
  Hi.Priority = -0.5;
  Cp.Open.push_back(std::move(Lo));
  Cp.Open.push_back(std::move(Hi));
  return Cp;
}

std::string sampleText() { return serializeCheckpoint(sampleCheckpoint()); }

/// Replaces the first occurrence of \p From with \p To; asserts it exists.
std::string replaced(const std::string &Text, const std::string &From,
                     const std::string &To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << "pattern '" << From << "' not found";
  std::string Out = Text;
  Out.replace(Pos, From.size(), To);
  return Out;
}

} // namespace

TEST(CheckpointNegativeTest, BaselineParsesAndRoundTrips) {
  std::string Text = sampleText();
  std::optional<SearchCheckpoint> Cp = deserializeCheckpoint(Text);
  ASSERT_TRUE(Cp.has_value());
  EXPECT_EQ(Text, serializeCheckpoint(*Cp));
  EXPECT_EQ(Cp->Open.size(), 2u);
}

TEST(CheckpointNegativeTest, RejectsTruncationAtEveryLineBoundary) {
  std::string Text = sampleText();
  int Boundaries = 0;
  for (size_t Pos = Text.find('\n'); Pos != std::string::npos;
       Pos = Text.find('\n', Pos + 1)) {
    if (Pos + 1 == Text.size())
      break; // the full text parses, of course
    ++Boundaries;
    EXPECT_FALSE(deserializeCheckpoint(Text.substr(0, Pos + 1)).has_value())
        << "truncated after byte " << Pos;
  }
  EXPECT_GT(Boundaries, 8); // header + two node blocks worth of lines
}

TEST(CheckpointNegativeTest, RejectsCorruptedHeader) {
  EXPECT_FALSE(deserializeCheckpoint("").has_value());
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(sampleText(), "charon-checkpoint 1",
                                     "charon-checkpoint 2"))
          .has_value());
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(sampleText(), "charon-checkpoint",
                                     "charon-chickpoint"))
          .has_value());
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(sampleText(), "order lifo", "order fifo"))
          .has_value());
}

TEST(CheckpointNegativeTest, RejectsCorruptedDigests) {
  // The digest values are unsigned decimals; anything non-numeric in their
  // place must fail the parse, not default to zero.
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "network 4660", "network 0xgg"))
                   .has_value());
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "property 22136", "property -"))
                   .has_value());
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "config 39612", "config digest"))
                   .has_value());
  // A renamed keyword is as fatal as a bad value.
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "network 4660", "netwerk 4660"))
                   .has_value());
}

TEST(CheckpointNegativeTest, RejectsNonNumericDoubles) {
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "lower 0 0", "lower zero 0"))
                   .has_value());
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "upper 0.5 1", "upper 0.5 one"))
                   .has_value());
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "warm 2 0.25 0.75", "warm 2 ! 0.75"))
                   .has_value());
}

TEST(CheckpointNegativeTest, RejectsStructuralDamage) {
  // Inverted bounds.
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "upper 0.5 1", "upper 0.5 -1"))
                   .has_value());
  // Warm vector sized neither 0 nor dim.
  EXPECT_FALSE(deserializeCheckpoint(
                   replaced(sampleText(), "warm 2 0.25 0.75", "warm 1 0.25"))
                   .has_value());
  // Path characters outside {0,1}.
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(sampleText(), "node 0", "node 2"))
          .has_value());
  // Open count larger than the node blocks present (a form of truncation).
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(sampleText(), "open 2", "open 3"))
          .has_value());
  // A dim or open count larger than the text that follows must be refused
  // before it sizes an allocation.
  const std::string Hostile = "charon-checkpoint 1\n"
                              "order lifo\n"
                              "network 1 property 2 config 3\n"
                              "stats 0 0 0 0 0 0 0 0 0\n"
                              "dim 1\n"
                              "open 1\n"
                              "node - 0\n"
                              "lower 0\n"
                              "upper 1\n"
                              "warm 0\n"
                              "end\n";
  ASSERT_TRUE(deserializeCheckpoint(Hostile).has_value());
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(Hostile, "dim 1", "dim 100000000000000"))
          .has_value());
  EXPECT_FALSE(
      deserializeCheckpoint(replaced(Hostile, "open 1", "open 100000000000000"))
          .has_value());
}

TEST(CheckpointNegativeTest, RejectsDuplicateNodePaths) {
  // Rewriting node "1" to node "0" leaves two frontier entries with the
  // same path — a file the engine could never have saved.
  std::string Text = replaced(sampleText(), "node 1 ", "node 0 ");
  EXPECT_FALSE(deserializeCheckpoint(Text).has_value());

  // Same for a duplicated root path.
  std::string TwoRoots = sampleText();
  TwoRoots = replaced(TwoRoots, "node 0 ", "node - ");
  TwoRoots = replaced(TwoRoots, "node 1 ", "node - ");
  EXPECT_FALSE(deserializeCheckpoint(TwoRoots).has_value());
}
