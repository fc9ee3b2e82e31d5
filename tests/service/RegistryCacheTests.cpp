//===- RegistryCacheTests.cpp - NetworkRegistry + ResultCache tests -----------===//

#include "service/NetworkRegistry.h"
#include "service/ResultCache.h"

#include "core/Digest.h"
#include "nn/Builder.h"
#include "nn/Io.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace charon;

namespace {

Network smallNet(uint64_t Seed) {
  Rng R(Seed);
  return makeMlp(3, {4, 4}, 2, R);
}

CacheKey key(uint64_t Net, uint64_t Prop, uint64_t Config) {
  CacheKey K;
  K.NetworkFingerprint = Net;
  K.PropertyDigest = Prop;
  K.ConfigDigest = Config;
  return K;
}

VerifyResult verified() {
  VerifyResult R;
  R.Result = Outcome::Verified;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

TEST(DigestTest, FingerprintStableAcrossClones) {
  Network Net = smallNet(1);
  EXPECT_EQ(fingerprintNetwork(Net), fingerprintNetwork(Net.clone()));
}

TEST(DigestTest, FingerprintSensitiveToWeights) {
  Network A = smallNet(1);
  Network B = smallNet(2);
  EXPECT_NE(fingerprintNetwork(A), fingerprintNetwork(B));
}

TEST(DigestTest, FingerprintSurvivesSerialization) {
  Network Net = smallNet(3);
  std::string Path = "/tmp/charon-digest-test.net";
  ASSERT_TRUE(saveNetworkFile(Net, Path));
  auto Loaded = loadNetworkFile(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(fingerprintNetwork(Net), fingerprintNetwork(*Loaded));
  std::remove(Path.c_str());
}

TEST(DigestTest, PropertyDigestIgnoresName) {
  RobustnessProperty A{Box::uniform(3, 0.0, 1.0), 1, "a"};
  RobustnessProperty B{Box::uniform(3, 0.0, 1.0), 1, "b"};
  EXPECT_EQ(digestProperty(A), digestProperty(B));
  RobustnessProperty C{Box::uniform(3, 0.0, 1.0), 0, "a"};
  EXPECT_NE(digestProperty(A), digestProperty(C));
}

TEST(DigestTest, ConfigDigestSensitiveToBudgetAndSeed) {
  VerifierConfig A;
  VerifierConfig B;
  EXPECT_EQ(digestVerifierConfig(A), digestVerifierConfig(B));
  B.TimeLimitSeconds = 5.0;
  EXPECT_NE(digestVerifierConfig(A), digestVerifierConfig(B));
  VerifierConfig C;
  C.Seed = 1234;
  EXPECT_NE(digestVerifierConfig(A), digestVerifierConfig(C));
}

TEST(DigestTest, DefaultConfigDigestsArePinned) {
  // Persisted cache logs, checkpoints and certificates are keyed by these
  // digests, so a change to what the default config hashes orphans every
  // one of them. Change the pins only together with a format version bump.
  EXPECT_EQ(digestVerifierConfigSemantics(VerifierConfig{}),
            0xaf0c6c02654d8278ull);
  EXPECT_EQ(digestVerifierConfig(VerifierConfig{}), 0x0700656decc55078ull);
}

//===----------------------------------------------------------------------===//
// NetworkRegistry
//===----------------------------------------------------------------------===//

TEST(NetworkRegistryTest, DedupesIdenticalNetworks) {
  NetworkRegistry Registry;
  Network Net = smallNet(5);
  NetworkId A = Registry.add(Net.clone());
  NetworkId B = Registry.add(Net.clone());
  EXPECT_EQ(A, B);
  EXPECT_EQ(Registry.size(), 1u);

  NetworkId C = Registry.add(smallNet(6));
  EXPECT_NE(A, C);
  EXPECT_EQ(Registry.size(), 2u);
}

TEST(NetworkRegistryTest, FileLoadDedupesAcrossPaths) {
  Network Net = smallNet(7);
  std::string PathA = "/tmp/charon-registry-a.net";
  std::string PathB = "/tmp/charon-registry-b.net";
  ASSERT_TRUE(saveNetworkFile(Net, PathA));
  ASSERT_TRUE(saveNetworkFile(Net, PathB));

  NetworkRegistry Registry;
  auto A = Registry.addFromFile(PathA);
  auto B = Registry.addFromFile(PathB);
  auto ARepeat = Registry.addFromFile(PathA);
  ASSERT_TRUE(A && B && ARepeat);
  EXPECT_EQ(*A, *B); // identical weights, distinct paths
  EXPECT_EQ(*A, *ARepeat);
  EXPECT_EQ(Registry.size(), 1u);
  EXPECT_EQ(Registry.fingerprint(*A), fingerprintNetwork(Net));

  EXPECT_FALSE(Registry.addFromFile("/tmp/charon-no-such-file.net"));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, ExactHitAfterMiss) {
  ResultCache Cache(8);
  Box Region = Box::uniform(2, 0.0, 1.0);
  CacheKey K = key(1, 2, 3);

  EXPECT_FALSE(Cache.lookup(K, Region, 0).has_value());
  Cache.insert(K, Region, 0, verified());
  auto Hit = Cache.lookup(K, Region, 0);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Verified);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.ExactHits, 1);
  EXPECT_EQ(S.Misses, 1);
}

TEST(ResultCacheTest, LruEvictsOldestFirst) {
  ResultCache Cache(3);
  Box Region = Box::uniform(1, 0.0, 1.0);
  for (uint64_t I = 0; I < 3; ++I)
    Cache.insert(key(I, 0, 0), Region, 0, verified());

  // Touch key 0 so key 1 becomes the LRU victim.
  EXPECT_TRUE(Cache.lookup(key(0, 0, 0), Region, 0).has_value());
  Cache.insert(key(3, 0, 0), Region, 0, verified());

  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_TRUE(Cache.lookup(key(0, 0, 0), Region, 0).has_value());
  EXPECT_FALSE(Cache.lookup(key(1, 0, 0), Region, 0).has_value());
  EXPECT_TRUE(Cache.lookup(key(2, 0, 0), Region, 0).has_value());
  EXPECT_TRUE(Cache.lookup(key(3, 0, 0), Region, 0).has_value());
  EXPECT_EQ(Cache.stats().Evictions, 1);
}

TEST(ResultCacheTest, SubsumptionAnswersSubregions) {
  ResultCache Cache(8);
  Box Big = Box::uniform(2, 0.0, 1.0);
  Box Small = Box::uniform(2, 0.25, 0.75);
  Cache.insert(key(1, 11, 3), Big, 0, verified());

  // Different property digest, same network/config, contained region.
  auto Hit = Cache.lookup(key(1, 22, 3), Small, 0);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, Outcome::Verified);
  EXPECT_EQ(Cache.stats().SubsumptionHits, 1);
}

TEST(ResultCacheTest, SubsumptionRespectsSoundnessGuards) {
  ResultCache Cache(8);
  Box Big = Box::uniform(2, 0.0, 1.0);
  Box Small = Box::uniform(2, 0.25, 0.75);
  Box Overhanging = Box::uniform(2, 0.5, 1.5); // not contained in Big

  // A Falsified verdict on a superregion says nothing about subregions.
  VerifyResult Falsified;
  Falsified.Result = Outcome::Falsified;
  Falsified.Counterexample = Vector{0.9, 0.9};
  Cache.insert(key(1, 11, 3), Big, 0, Falsified);
  EXPECT_FALSE(Cache.lookup(key(1, 22, 3), Small, 0).has_value());

  // Verified on Big: still no answer for a different network, a different
  // config, a different target class, or a non-contained region.
  Cache.insert(key(1, 12, 3), Big, 0, verified());
  EXPECT_FALSE(Cache.lookup(key(2, 22, 3), Small, 0).has_value());
  EXPECT_FALSE(Cache.lookup(key(1, 22, 4), Small, 0).has_value());
  EXPECT_FALSE(Cache.lookup(key(1, 22, 3), Small, 1).has_value());
  EXPECT_FALSE(Cache.lookup(key(1, 22, 3), Overhanging, 0).has_value());
}

TEST(ResultCacheTest, TimeoutEntriesNeverSubsume) {
  ResultCache Cache(8);
  Box Big = Box::uniform(2, 0.0, 1.0);
  Box Small = Box::uniform(2, 0.25, 0.75);
  VerifyResult Timeout;
  Timeout.Result = Outcome::Timeout;
  Cache.insert(key(1, 11, 3), Big, 0, Timeout);

  // Exact replay is allowed (the key binds the budget)...
  EXPECT_TRUE(Cache.lookup(key(1, 11, 3), Big, 0).has_value());
  // ...but a timeout proves nothing about subregions.
  EXPECT_FALSE(Cache.lookup(key(1, 22, 3), Small, 0).has_value());
}

TEST(ResultCacheTest, ClearKeepsCounters) {
  ResultCache Cache(8);
  Box Region = Box::uniform(1, 0.0, 1.0);
  Cache.insert(key(1, 1, 1), Region, 0, verified());
  EXPECT_TRUE(Cache.lookup(key(1, 1, 1), Region, 0).has_value());
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.lookup(key(1, 1, 1), Region, 0).has_value());
  EXPECT_EQ(Cache.stats().ExactHits, 1);
  EXPECT_EQ(Cache.stats().Misses, 1);
}
