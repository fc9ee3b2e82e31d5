//===- PersistentCacheTests.cpp - file-backed ResultCache ---------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The persistent result cache is what lets a restarted charon_serve answer
// repeats, serve re-checkable certificates, and resume timed-out searches
// without re-running anything. These tests exercise the attachFile()
// contract across cache instances: full record round-trips (verdict,
// counterexample, stats, certificate, checkpoint), the pinned record bytes,
// replay-in-order semantics, torn-tail recovery (including an oversized
// count), foreign-file refusal, and the single-writer flock.
//
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

#include "cert/Certificate.h"
#include "search/Checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace charon;

namespace {

class PersistentCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/charon-cache-test-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".db";
    ::unlink(Path.c_str());
  }

  void TearDown() override { ::unlink(Path.c_str()); }

  std::string Path;
};

CacheKey key(uint64_t Net, uint64_t Prop, uint64_t Cfg) {
  CacheKey K;
  K.NetworkFingerprint = Net;
  K.PropertyDigest = Prop;
  K.ConfigDigest = Cfg;
  return K;
}

Box box(double Lo, double Hi) { return Box(Vector{Lo, Lo}, Vector{Hi, Hi}); }

VerifyResult verified() {
  VerifyResult R;
  R.Result = Outcome::Verified;
  R.Stats.NodesExpanded = 11;
  R.Stats.PgdCalls = 23;
  R.Stats.Seconds = 0.5;
  return R;
}

VerifyResult falsified() {
  VerifyResult R;
  R.Result = Outcome::Falsified;
  R.Counterexample = Vector{0.25, 0.75};
  R.ObjectiveAtCex = -1.25e-3;
  R.Stats.NodesExpanded = 3;
  return R;
}

/// A hand-built single-node refutation certificate (the shape
/// buildFalsifiedCertificate produces).
std::shared_ptr<const ProofCertificate> sampleCertificate() {
  ProofCertificate Cert;
  Cert.Verdict = Outcome::Falsified;
  Cert.Delta = 1e-6;
  Cert.NetworkFingerprint = 7;
  Cert.PropertyDigest = 8;
  Cert.ConfigDigest = 9;
  Cert.Dim = 2;
  Cert.TargetClass = 1;
  CertNode Root;
  Root.Region = box(0.0, 1.0);
  Root.Kind = CertNodeKind::Falsified;
  Root.Cex = Vector{0.25, 0.75};
  Root.CexObjective = -1.25e-3;
  Cert.Nodes.push_back(std::move(Root));
  return std::make_shared<const ProofCertificate>(std::move(Cert));
}

std::shared_ptr<const SearchCheckpoint> sampleCheckpoint() {
  SearchCheckpoint Cp;
  Cp.NetworkFingerprint = 7;
  Cp.PropertyDigest = 8;
  Cp.ConfigDigest = 10;
  Cp.Stats.NodesExpanded = 42;
  CheckpointNode N;
  N.Path = {0, 1};
  N.Region = box(0.5, 0.75);
  N.Warm = Vector{0.6, 0.6};
  N.Priority = -0.5;
  Cp.Open.push_back(std::move(N));
  return std::make_shared<const SearchCheckpoint>(std::move(Cp));
}

size_t fileSize(const std::string &P) {
  struct stat St = {};
  return ::stat(P.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size) : 0;
}

} // namespace

TEST_F(PersistentCacheTest, EntriesSurviveAcrossInstances) {
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    EXPECT_TRUE(Cache.persistent());
    Cache.insert(key(1, 2, 3), box(0, 1), 0, verified());
    Cache.insert(key(1, 4, 3), box(0, 1), 1, falsified());
    EXPECT_EQ(Cache.stats().Inserts, 2);
  } // destructor closes the fd and releases the lock

  ResultCache Fresh(64);
  ASSERT_TRUE(Fresh.attachFile(Path));
  EXPECT_EQ(Fresh.size(), 2u);
  EXPECT_EQ(Fresh.stats().Loaded, 2);
  EXPECT_EQ(Fresh.stats().Inserts, 0) << "replays are Loaded, not Inserts";

  auto V = Fresh.lookup(key(1, 2, 3), box(0, 1), 0);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Result, Outcome::Verified);
  EXPECT_EQ(V->Stats.NodesExpanded, 11);
  EXPECT_EQ(V->Stats.PgdCalls, 23);
  EXPECT_EQ(V->Stats.Seconds, 0.5);

  auto F = Fresh.lookup(key(1, 4, 3), box(0, 1), 1);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Result, Outcome::Falsified);
  ASSERT_EQ(F->Counterexample.size(), 2u);
  EXPECT_EQ(F->Counterexample[0], 0.25);
  EXPECT_EQ(F->Counterexample[1], 0.75);
  EXPECT_EQ(F->ObjectiveAtCex, -1.25e-3);
}

TEST_F(PersistentCacheTest, SubsumptionWorksOnReloadedEntries) {
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    Cache.insert(key(1, 2, 3), box(0, 1), 0, verified());
  }
  ResultCache Fresh(64);
  ASSERT_TRUE(Fresh.attachFile(Path));
  // Different property digest, smaller region: only the rebuilt
  // subsumption scan set can answer this.
  auto Hit = Fresh.lookup(key(1, 99, 3), box(0.25, 0.5), 0);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Verified);
  EXPECT_EQ(Fresh.stats().SubsumptionHits, 1);
}

TEST_F(PersistentCacheTest, CertificateServedAcrossRestart) {
  auto Cert = sampleCertificate();
  std::string CertBytes = serializeCertificate(*Cert);
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    VerifyResult R = falsified();
    R.Certificate = Cert;
    Cache.insert(key(7, 8, 9), box(0, 1), 1, R);
  }
  ResultCache Fresh(64);
  ASSERT_TRUE(Fresh.attachFile(Path));
  // lookupCertified is what VerificationService uses for cross-config
  // CertifiedHits; digest 9 is excluded so ask from a different config.
  auto Hit = Fresh.lookupCertified(7, 8, /*ExcludeConfigDigest=*/1234);
  ASSERT_TRUE(Hit.has_value());
  ASSERT_TRUE(Hit->Certificate != nullptr);
  EXPECT_EQ(serializeCertificate(*Hit->Certificate), CertBytes);
}

TEST_F(PersistentCacheTest, TimeoutCheckpointSurvivesRestart) {
  auto Cp = sampleCheckpoint();
  std::string CpBytes = serializeCheckpoint(*Cp);
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    VerifyResult R;
    R.Result = Outcome::Timeout;
    R.Stats.NodesExpanded = 42;
    R.Checkpoint = Cp;
    Cache.insert(key(7, 8, 10), box(0, 1), 1, R);
  }
  ResultCache Fresh(64);
  ASSERT_TRUE(Fresh.attachFile(Path));
  auto Hit = Fresh.lookup(key(7, 8, 10), box(0, 1), 1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Timeout);
  ASSERT_TRUE(Hit->Checkpoint != nullptr);
  EXPECT_EQ(serializeCheckpoint(*Hit->Checkpoint), CpBytes)
      << "a restarted server can resume the interrupted search";
}

TEST_F(PersistentCacheTest, LaterRecordWinsOnReplay) {
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    VerifyResult First;
    First.Result = Outcome::Timeout;
    Cache.insert(key(1, 2, 3), box(0, 1), 0, First);
    Cache.insert(key(1, 2, 3), box(0, 1), 0, verified()); // upgrade
  }
  ResultCache Fresh(64);
  ASSERT_TRUE(Fresh.attachFile(Path));
  EXPECT_EQ(Fresh.size(), 1u);
  EXPECT_EQ(Fresh.stats().Loaded, 2) << "both records replay; later wins";
  auto Hit = Fresh.lookup(key(1, 2, 3), box(0, 1), 0);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Verified);
}

TEST_F(PersistentCacheTest, TornTailIsTruncatedAndAppendsContinue) {
  // A crash mid-append leaves half an "entry" line with no record body. A
  // damaged record whose region count is far beyond the bytes that follow
  // must be refused the same way, before the count sizes an allocation.
  for (const char *Tail :
       {"entry 9 9", "entry 1 9 3 0\nregion 100000000000000\nlower 0\n"}) {
    SCOPED_TRACE(Tail);
    ::unlink(Path.c_str());
    {
      ResultCache Cache(64);
      ASSERT_TRUE(Cache.attachFile(Path));
      Cache.insert(key(1, 2, 3), box(0, 1), 0, verified());
    }
    size_t GoodSize = fileSize(Path);
    {
      std::ofstream Os(Path, std::ios::app);
      Os << Tail;
    }
    ASSERT_GT(fileSize(Path), GoodSize);

    {
      ResultCache Fresh(64);
      ASSERT_TRUE(Fresh.attachFile(Path));
      EXPECT_EQ(Fresh.stats().Loaded, 1) << "records before the tear are kept";
      EXPECT_EQ(fileSize(Path), GoodSize) << "the torn tail is truncated away";
      Fresh.insert(key(1, 5, 3), box(0, 1), 0, falsified());
    }

    // The post-truncation append produced a clean file holding both
    // records.
    ResultCache Again(64);
    ASSERT_TRUE(Again.attachFile(Path));
    EXPECT_EQ(Again.size(), 2u);
    EXPECT_TRUE(Again.lookup(key(1, 2, 3), box(0, 1), 0).has_value());
    EXPECT_TRUE(Again.lookup(key(1, 5, 3), box(0, 1), 0).has_value());
  }
}

TEST_F(PersistentCacheTest, RecordBytesArePinned) {
  // One record exactly as earlier builds wrote it, 12-counter stats line
  // included. Existing logs must keep loading, and re-persisting the entry
  // must append the very same bytes.
  const std::string Record =
      "entry 11 12 13 1\n"
      "region 2\n"
      "lower 0 0\n"
      "upper 1 1\n"
      "result falsified -0.00125\n"
      "cex 2 0.25 0.75\n"
      "stats 1 2 3 4 5 6 7 8 0 0 0 0 0.10000000000000001\n"
      "cert 180\n"
      "charon-cert 1\n"
      "verdict falsified\n"
      "network 11 property 12 config 13\n"
      "delta 9.9999999999999995e-07\n"
      "dim 2 class 1\n"
      "nodes 1\n"
      "node - falsified -0.00125\n"
      "lower 0 0\n"
      "upper 1 1\n"
      "cex 0.25 0.75\n"
      "end\n"
      "checkpoint 0\n"
      "end\n";
  const std::string Magic = "charon-cache 1\n";
  {
    std::ofstream Os(Path);
    Os << Magic << Record;
  }
  ResultCache Cache(64);
  ASSERT_TRUE(Cache.attachFile(Path));
  EXPECT_EQ(Cache.stats().Loaded, 1);
  auto Hit = Cache.lookup(key(11, 12, 13), box(0, 1), 1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Falsified);
  EXPECT_EQ(Hit->ObjectiveAtCex, -1.25e-3);
  EXPECT_EQ(Hit->Stats.DisjunctSum, 7);
  EXPECT_EQ(Hit->Stats.NodesExpanded, 8);
  EXPECT_EQ(Hit->Stats.Seconds, 0.1);
  ASSERT_TRUE(Hit->Certificate != nullptr);

  Cache.insert(key(11, 12, 13), box(0, 1), 1, *Hit);
  std::ifstream Is(Path);
  std::stringstream Text;
  Text << Is.rdbuf();
  EXPECT_EQ(Text.str(), Magic + Record + Record);
}

TEST_F(PersistentCacheTest, RefusesForeignFile) {
  {
    std::ofstream Os(Path);
    Os << "definitely not a charon cache\n";
  }
  size_t Before = fileSize(Path);
  ResultCache Cache(64);
  EXPECT_FALSE(Cache.attachFile(Path));
  EXPECT_FALSE(Cache.persistent());
  EXPECT_EQ(fileSize(Path), Before) << "a foreign file is never clobbered";
  // The cache still works memory-only.
  Cache.insert(key(1, 2, 3), box(0, 1), 0, verified());
  EXPECT_TRUE(Cache.lookup(key(1, 2, 3), box(0, 1), 0).has_value());
}

TEST_F(PersistentCacheTest, SecondWriterIsLockedOut) {
  ResultCache Holder(64);
  ASSERT_TRUE(Holder.attachFile(Path));
  // flock is per open-file-description, so a second attach conflicts even
  // from the same process — this is exactly the two-servers-one-file case.
  ResultCache Intruder(64);
  EXPECT_FALSE(Intruder.attachFile(Path));
  EXPECT_FALSE(Intruder.persistent());
  // The first cache keeps persisting untroubled.
  Holder.insert(key(1, 2, 3), box(0, 1), 0, verified());
  EXPECT_TRUE(Holder.persistent());
}

TEST_F(PersistentCacheTest, AttachIsOncePerCache) {
  ResultCache Cache(64);
  ASSERT_TRUE(Cache.attachFile(Path));
  EXPECT_FALSE(Cache.attachFile(Path)) << "attachFile is at most once";
  EXPECT_TRUE(Cache.persistent());
}

TEST_F(PersistentCacheTest, CapacityBoundsReplayAndLaterRecordsWin) {
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
    // Falsified entries: unlike Verified ones they never answer by
    // subsumption, so eviction is observable through lookup().
    for (uint64_t I = 0; I < 5; ++I)
      Cache.insert(key(1, 100 + I, 3), box(0, 1), 0, falsified());
  }
  ResultCache Small(2);
  ASSERT_TRUE(Small.attachFile(Path));
  EXPECT_EQ(Small.size(), 2u);
  EXPECT_EQ(Small.stats().Loaded, 5);
  // Replay is in file order, so the survivors are the most recent records.
  EXPECT_TRUE(Small.lookup(key(1, 104, 3), box(0, 1), 0).has_value());
  EXPECT_TRUE(Small.lookup(key(1, 103, 3), box(0, 1), 0).has_value());
  EXPECT_FALSE(Small.lookup(key(1, 100, 3), box(0, 1), 0).has_value());
}

TEST_F(PersistentCacheTest, EmptyFileGetsMagicHeader) {
  {
    ResultCache Cache(64);
    ASSERT_TRUE(Cache.attachFile(Path));
  }
  std::ifstream Is(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(Is, Line));
  EXPECT_EQ(Line, "charon-cache 1");
}
