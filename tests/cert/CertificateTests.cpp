//===- CertificateTests.cpp - Proof-certificate subsystem tests ---------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The certificate contract under test: every decided direct verdict emitted
// with EmitCertificate carries a certificate whose canonical text form
// round-trips byte-identically, which the standalone checker accepts across
// frontier orders and the parallel driver, and every class of tampering —
// inflated margins, dropped leaves, shrunk subregions, flipped verdicts,
// wrong digests — is rejected. Checkpoint-resumed runs certify Falsified
// with a trivial single-witness certificate and leave Verified uncertified,
// and the service answers a cross-config repeat query by re-checking the
// stored certificate instead of re-running the search.
//
//===----------------------------------------------------------------------===//

#include "cert/CertChecker.h"
#include "cert/Certificate.h"
#include "core/Digest.h"
#include "core/Verifier.h"
#include "data/Benchmarks.h"
#include "nn/Builder.h"
#include "service/VerificationService.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace charon;

namespace {

constexpr double BudgetSeconds = 5.0;
constexpr const char *CacheDir = "/tmp/charon-test-networks";

VerifierConfig certConfig() {
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Config.EmitCertificate = true;
  return Config;
}

/// The shared ACAS suite (trained once, cached on disk across test runs).
const BenchmarkSuite &acasSuite() {
  static BenchmarkSuite Suite = makeAcasSuite(8, 321, CacheDir);
  return Suite;
}

/// First property of the suite the given verifier decides as \p Want, or
/// nullptr when the budget decides none that way.
const RobustnessProperty *findDecided(const Verifier &V,
                                      const BenchmarkSuite &Suite,
                                      Outcome Want,
                                      VerifyResult *Out = nullptr) {
  for (const RobustnessProperty &Prop : Suite.Properties) {
    VerifyResult R = V.verify(Prop);
    if (R.Result == Want) {
      if (Out)
        *Out = std::move(R);
      return &Prop;
    }
  }
  return nullptr;
}

std::string firstError(const CertCheckReport &Rep) {
  return Rep.Errors.empty() ? std::string("(accepted)") : Rep.Errors.front();
}

} // namespace

//===----------------------------------------------------------------------===//
// Emission and round-trip
//===----------------------------------------------------------------------===//

TEST(CertificateTest, NoCertificateUnlessRequested) {
  VerifierConfig Config = certConfig();
  Config.EmitCertificate = false;
  Verifier V(acasSuite().Net, VerificationPolicy(), Config);
  VerifyResult R;
  ASSERT_NE(findDecided(V, acasSuite(), Outcome::Verified, &R), nullptr);
  EXPECT_EQ(R.Certificate, nullptr);
}

TEST(CertificateTest, RoundTripIsByteIdentical) {
  Verifier V(acasSuite().Net, VerificationPolicy(), certConfig());
  for (const RobustnessProperty &Prop : acasSuite().Properties) {
    SCOPED_TRACE(Prop.Name);
    VerifyResult R = V.verify(Prop);
    if (R.Result == Outcome::Timeout)
      continue;
    ASSERT_TRUE(R.Certificate);
    std::string Text = serializeCertificate(*R.Certificate);
    std::optional<ProofCertificate> Back = deserializeCertificate(Text);
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(Text, serializeCertificate(*Back));

    // File wrappers hit the same canonical form.
    std::string Path = "/tmp/charon-cert-roundtrip.cert";
    ASSERT_TRUE(saveCertificateFile(*R.Certificate, Path));
    std::optional<ProofCertificate> FromFile = loadCertificateFile(Path);
    ASSERT_TRUE(FromFile.has_value());
    EXPECT_EQ(Text, serializeCertificate(*FromFile));
    std::remove(Path.c_str());
  }
}

TEST(CertificateTest, CheckerAcceptsAcrossOrdersAndParallel) {
  ThreadPool Pool(4);
  int Checked = 0;
  for (FrontierOrder Order : {FrontierOrder::Lifo, FrontierOrder::BestFirst}) {
    VerifierConfig Config = certConfig();
    Config.SearchOrder = Order;
    Verifier V(acasSuite().Net, VerificationPolicy(), Config);
    for (const RobustnessProperty &Prop : acasSuite().Properties) {
      SCOPED_TRACE(Prop.Name);
      for (bool Parallel : {false, true}) {
        VerifyResult R =
            Parallel ? V.verifyParallel(Prop, Pool) : V.verify(Prop);
        if (R.Result == Outcome::Timeout)
          continue;
        ASSERT_TRUE(R.Certificate);
        EXPECT_EQ(R.Certificate->Verdict, R.Result);
        CertCheckReport Rep =
            checkCertificate(acasSuite().Net, Prop, *R.Certificate);
        EXPECT_TRUE(Rep.Accepted) << firstError(Rep);
        if (R.Result == Outcome::Verified) {
          EXPECT_GT(Rep.VerifiedLeaves, 0);
          EXPECT_EQ(Rep.FalsifiedLeaves, 0);
          EXPECT_EQ(Rep.PrunedNodes, 0);
          EXPECT_EQ(Rep.Reanalyses, Rep.VerifiedLeaves);
        } else {
          EXPECT_GT(Rep.FalsifiedLeaves, 0);
          EXPECT_EQ(Rep.CexReplays, Rep.FalsifiedLeaves);
        }
        ++Checked;
      }
    }
  }
  EXPECT_GE(Checked, 8) << "too few certificates decided within budget";
}

//===----------------------------------------------------------------------===//
// Tamper rejection
//===----------------------------------------------------------------------===//

namespace {

/// A verified certificate with a real split tree, produced once.
struct VerifiedFixture {
  const RobustnessProperty *Prop = nullptr;
  ProofCertificate Cert;
};

const VerifiedFixture &verifiedFixture() {
  static VerifiedFixture F = [] {
    VerifiedFixture Out;
    Verifier V(acasSuite().Net, VerificationPolicy(), certConfig());
    for (const RobustnessProperty &Prop : acasSuite().Properties) {
      VerifyResult R = V.verify(Prop);
      if (R.Result == Outcome::Verified && R.Certificate->Nodes.size() > 1) {
        Out.Prop = &Prop;
        Out.Cert = *R.Certificate;
        break;
      }
    }
    return Out;
  }();
  return F;
}

void expectRejected(const ProofCertificate &Cert, const char *Why) {
  const VerifiedFixture &F = verifiedFixture();
  CertCheckReport Rep = checkCertificate(acasSuite().Net, *F.Prop, Cert);
  EXPECT_FALSE(Rep.Accepted) << Why;
  EXPECT_FALSE(Rep.Errors.empty());
}

} // namespace

TEST(CertCheckerTest, RejectsInflatedMargin) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);
  ProofCertificate T = F.Cert;
  for (CertNode &N : T.Nodes) {
    if (N.Kind == CertNodeKind::Verified) {
      N.Margin += 0.125;
      break;
    }
  }
  expectRejected(T, "margin inflated past the replayable value");

  // A slack at least as large as the inflation forgives it — the knob the
  // fuzz oracle uses to prove its tamper probes have teeth.
  CertCheckConfig Lax;
  Lax.MarginSlack = 0.25;
  EXPECT_TRUE(checkCertificate(acasSuite().Net, *F.Prop, T, Lax).Accepted);
}

TEST(CertCheckerTest, RejectsDroppedLeaf) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);
  ProofCertificate T = F.Cert;
  T.Nodes.pop_back();
  expectRejected(T, "split parent is missing a child");
}

TEST(CertCheckerTest, RejectsShrunkChildRegion) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);
  ProofCertificate T = F.Cert;
  CertNode &N = T.Nodes.back();
  ASSERT_FALSE(N.Path.empty());
  bool Shrunk = false;
  for (size_t I = 0; I < N.Region.dim() && !Shrunk; ++I) {
    if (N.Region.width(I) > 0.0) {
      Vector Lo = N.Region.lower();
      Vector Hi = N.Region.upper();
      Lo[I] += 0.25 * N.Region.width(I);
      N.Region = Box(std::move(Lo), std::move(Hi));
      Shrunk = true;
    }
  }
  ASSERT_TRUE(Shrunk);
  expectRejected(T, "child region no longer tiles its parent");
}

TEST(CertCheckerTest, RejectsDigestAndVerdictForgeries) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);

  ProofCertificate T = F.Cert;
  T.NetworkFingerprint ^= 1;
  expectRejected(T, "wrong network fingerprint");

  T = F.Cert;
  T.PropertyDigest ^= 1;
  expectRejected(T, "wrong property digest");

  T = F.Cert;
  T.Delta = 0.0;
  expectRejected(T, "non-positive delta");

  // A Verified verdict over a tree with any unproved leaf is a forgery.
  T = F.Cert;
  for (CertNode &N : T.Nodes) {
    if (N.Kind == CertNodeKind::Verified) {
      N.Kind = CertNodeKind::Pruned;
      break;
    }
  }
  expectRejected(T, "Verified verdict with a pruned leaf");

  // The config digest is provenance, not a guard: changing it alone must
  // NOT reject (a valid proof is valid regardless of who found it).
  T = F.Cert;
  T.ConfigDigest ^= 1;
  CertCheckReport Rep = checkCertificate(acasSuite().Net, *F.Prop, T);
  EXPECT_TRUE(Rep.Accepted) << firstError(Rep);
}

TEST(CertCheckerTest, RejectsAgainstTheWrongNetwork) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);
  Rng R(99);
  Network Other = makeMlp(acasSuite().Net.inputSize(), {8},
                          acasSuite().Net.outputSize(), R);
  CertCheckReport Rep = checkCertificate(Other, *F.Prop, F.Cert);
  EXPECT_FALSE(Rep.Accepted);
}

//===----------------------------------------------------------------------===//
// Parser negatives
//===----------------------------------------------------------------------===//

TEST(CertificateParserTest, RejectsMalformedInput) {
  const VerifiedFixture &F = verifiedFixture();
  ASSERT_NE(F.Prop, nullptr);
  std::string Text = serializeCertificate(F.Cert);
  ASSERT_TRUE(deserializeCertificate(Text).has_value());

  // Truncation at any line boundary (except the full text) must fail.
  for (size_t Pos = Text.find('\n'); Pos != std::string::npos;
       Pos = Text.find('\n', Pos + 1)) {
    if (Pos + 1 == Text.size())
      break;
    EXPECT_FALSE(deserializeCertificate(Text.substr(0, Pos + 1)).has_value())
        << "truncated after byte " << Pos;
  }

  // Wrong magic or version.
  EXPECT_FALSE(deserializeCertificate("charon-cert 2\n").has_value());
  std::string Bad = Text;
  Bad.replace(0, 11, "charon-zert"); // same length, wrong magic
  EXPECT_FALSE(deserializeCertificate(Bad).has_value());

  // Non-numeric doubles where the grammar demands numbers.
  Bad = Text;
  size_t DeltaPos = Bad.find("delta ");
  ASSERT_NE(DeltaPos, std::string::npos);
  Bad.replace(DeltaPos, 6, "delta x");
  EXPECT_FALSE(deserializeCertificate(Bad).has_value());

  // Duplicate node paths: repeat the first node block verbatim and bump
  // the count so the stream stays well-formed otherwise.
  size_t NodePos = Text.find("node ");
  size_t NextNode = Text.find("node ", NodePos + 1);
  ASSERT_NE(NodePos, std::string::npos);
  if (NextNode != std::string::npos) {
    std::string Block = Text.substr(NodePos, NextNode - NodePos);
    Bad = Text;
    size_t CountPos = Bad.find("nodes ");
    ASSERT_NE(CountPos, std::string::npos);
    size_t CountEnd = Bad.find('\n', CountPos);
    Bad.replace(CountPos, CountEnd - CountPos,
                "nodes " + std::to_string(F.Cert.Nodes.size() + 1));
    Bad.insert(Bad.find("node ", Bad.find("nodes ")), Block);
    EXPECT_FALSE(deserializeCertificate(Bad).has_value())
        << "duplicate node path accepted";
  }

  // A dim or nodes count larger than the text that follows is damage, and
  // must be refused before it sizes an allocation.
  const std::string Hostile = "charon-cert 1\n"
                              "verdict verified\n"
                              "network 1 property 2 config 3\n"
                              "delta 9.9999999999999995e-07\n"
                              "dim 1 class 0\n"
                              "nodes 1\n"
                              "node - verified zonotope 1 0.5\n"
                              "lower 0\n"
                              "upper 1\n"
                              "end\n";
  ASSERT_TRUE(deserializeCertificate(Hostile).has_value());
  for (const char *Key : {"dim ", "nodes "}) {
    Bad = Hostile;
    Bad.replace(Bad.find(Key) + std::strlen(Key), 1, "100000000000000");
    EXPECT_FALSE(deserializeCertificate(Bad).has_value()) << Key;
  }
}

//===----------------------------------------------------------------------===//
// Resumed runs
//===----------------------------------------------------------------------===//

TEST(CertificateTest, ResumedRunsCertifyFalsifiedOnly) {
  VerificationPolicy Policy;
  Verifier V(acasSuite().Net, Policy, certConfig());

  for (Outcome Want : {Outcome::Falsified, Outcome::Verified}) {
    VerifyResult Full;
    const RobustnessProperty *Prop =
        findDecided(V, acasSuite(), Want, &Full);
    if (!Prop)
      continue;
    SCOPED_TRACE(Prop->Name);

    // Interrupt after a few scheduler polls, then resume to completion.
    VerifierConfig Cancelling = certConfig();
    auto Polls = std::make_shared<std::atomic<long>>(0);
    Cancelling.CancelRequested = [Polls] { return Polls->fetch_add(1) >= 2; };
    VerifyResult Step =
        Verifier(acasSuite().Net, Policy, Cancelling).verify(*Prop);
    if (Step.Result != Outcome::Timeout)
      continue; // decided before the cancel landed; nothing to resume
    ASSERT_TRUE(Step.Checkpoint);
    EXPECT_EQ(Step.Certificate, nullptr); // Timeout is never certified

    VerifyResult Resumed = V.verify(*Prop, Step.Checkpoint.get());
    int Hops = 8;
    while (Resumed.Result == Outcome::Timeout && Resumed.Checkpoint &&
           Hops-- > 0)
      Resumed = V.verify(*Prop, Resumed.Checkpoint.get());
    ASSERT_EQ(Resumed.Result, Want);

    if (Want == Outcome::Falsified) {
      // A refutation needs no tree: one witness node is a complete proof.
      ASSERT_TRUE(Resumed.Certificate);
      EXPECT_EQ(Resumed.Certificate->Nodes.size(), 1u);
      EXPECT_EQ(Resumed.Certificate->Nodes.front().Kind,
                CertNodeKind::Falsified);
      CertCheckReport Rep =
          checkCertificate(acasSuite().Net, *Prop, *Resumed.Certificate);
      EXPECT_TRUE(Rep.Accepted) << firstError(Rep);
    } else {
      // The pre-interrupt subtree is gone; a Verified claim without it is
      // not a self-contained proof, so no certificate may be emitted.
      EXPECT_EQ(Resumed.Certificate, nullptr);
    }
  }
}

//===----------------------------------------------------------------------===//
// Service integration: certified cross-config hits
//===----------------------------------------------------------------------===//

TEST(CertificateTest, ServiceRechecksCertificateAcrossConfigs) {
  VerificationService Service{VerificationPolicy(), ServiceConfig()};
  NetworkId Id = Service.registry().add(acasSuite().Net.clone());

  // Find a property the first config verifies (so its entry stores a
  // whole-tree certificate).
  Verifier V(acasSuite().Net, VerificationPolicy(), certConfig());
  VerifyResult Direct;
  const RobustnessProperty *Prop =
      findDecided(V, acasSuite(), Outcome::Verified, &Direct);
  ASSERT_NE(Prop, nullptr);

  JobRequest First;
  First.Net = Id;
  First.Prop = *Prop;
  First.Config = certConfig();
  JobOutcome A = Service.submit(First).outcome();
  ASSERT_EQ(A.Result.Result, Outcome::Verified);
  EXPECT_FALSE(A.CacheHit);
  ASSERT_TRUE(A.Result.Certificate);

  // A different seed is a different config digest: an exact lookup misses,
  // but the stored certificate answers after a re-check.
  JobRequest Second = First;
  Second.Config.Seed = 9;
  ASSERT_NE(digestVerifierConfig(First.Config),
            digestVerifierConfig(Second.Config));
  JobOutcome B = Service.submit(Second).outcome();
  EXPECT_EQ(B.Result.Result, Outcome::Verified);
  EXPECT_TRUE(B.CacheHit);
  EXPECT_TRUE(B.CertifiedHit);
  EXPECT_EQ(Service.cache().stats().CertifiedHits, 1);

  // The certified answer was inserted under the second config's key, so a
  // third identical submission is a plain exact hit.
  JobOutcome C = Service.submit(Second).outcome();
  EXPECT_TRUE(C.CacheHit);
  EXPECT_FALSE(C.CertifiedHit);

  // With re-checking disabled, a third config re-runs the search instead.
  ServiceConfig NoRecheck;
  NoRecheck.RecheckCertificates = false;
  VerificationService Strict{VerificationPolicy(), NoRecheck};
  NetworkId Id2 = Strict.registry().add(acasSuite().Net.clone());
  JobRequest R1 = First;
  R1.Net = Id2;
  ASSERT_FALSE(Strict.submit(R1).outcome().CacheHit);
  JobRequest R2 = R1;
  R2.Config.Seed = 9;
  JobOutcome D = Strict.submit(R2).outcome();
  EXPECT_FALSE(D.CacheHit);
  EXPECT_FALSE(D.CertifiedHit);
  EXPECT_EQ(Strict.cache().stats().CertifiedHits, 0);
}
