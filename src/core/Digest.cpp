//===- Digest.cpp - Content digests for networks, properties, configs ---------===//

#include "core/Digest.h"

#include "nn/Layer.h"
#include "nn/Residual.h"

#include <cstring>

using namespace charon;

Fnv1a &Fnv1a::bytes(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    State ^= P[I];
    State *= 0x100000001b3ull;
  }
  return *this;
}

Fnv1a &Fnv1a::u64(uint64_t V) {
  unsigned char Buf[8];
  for (int I = 0; I < 8; ++I)
    Buf[I] = static_cast<unsigned char>(V >> (8 * I));
  return bytes(Buf, 8);
}

Fnv1a &Fnv1a::f64(double V) {
  if (V == 0.0)
    V = 0.0; // collapse -0.0 and +0.0
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  return u64(Bits);
}

Fnv1a &Fnv1a::str(std::string_view S) {
  u64(S.size());
  return bytes(S.data(), S.size());
}

static void hashLayer(Fnv1a &H, const Layer &L) {
  H.u64(static_cast<uint64_t>(L.kind()));
  H.u64(L.inputSize());
  H.u64(L.outputSize());
  if (auto Affine = L.affineForm()) {
    // Dense, Conv2D, and AvgPool2D all expose their parameters through the
    // affine view (the conv/pool layers via their lowered matrices), so this
    // covers every weighted layer uniformly.
    const Matrix &W = *Affine->W;
    H.u64(W.rows()).u64(W.cols());
    for (size_t R = 0; R < W.rows(); ++R)
      for (size_t C = 0; C < W.cols(); ++C)
        H.f64(W(R, C));
    const Vector &B = *Affine->B;
    for (size_t J = 0; J < B.size(); ++J)
      H.f64(B[J]);
  } else if (const PoolSpec *Pool = L.poolSpec()) {
    H.u64(Pool->PoolIndices.size());
    for (const auto &Group : Pool->PoolIndices) {
      H.u64(Group.size());
      for (int Idx : Group)
        H.u64(static_cast<uint64_t>(Idx));
    }
  } else if (const Network *Body = L.residualBody()) {
    H.u64(Body->numLayers());
    for (size_t I = 0, E = Body->numLayers(); I < E; ++I)
      hashLayer(H, Body->layer(I));
  }
  // Activations and Flatten carry no parameters beyond kind and size,
  // already absorbed.
}

uint64_t charon::fingerprintNetwork(const Network &Net) {
  Fnv1a H;
  H.u64(Net.numLayers());
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I)
    hashLayer(H, Net.layer(I));
  return H.digest();
}

uint64_t charon::digestProperty(const RobustnessProperty &Prop) {
  Fnv1a H;
  H.u64(Prop.Region.dim());
  for (size_t I = 0, E = Prop.Region.dim(); I < E; ++I)
    H.f64(Prop.Region.lower()[I]).f64(Prop.Region.upper()[I]);
  H.u64(Prop.TargetClass);
  return H.digest();
}

uint64_t charon::digestVerifierConfigSemantics(const VerifierConfig &Config) {
  Fnv1a H;
  H.f64(Config.Delta);
  H.u64(Config.Pgd.Steps);
  H.u64(Config.Pgd.Restarts);
  H.f64(Config.Pgd.StepScale);
  H.u64(static_cast<uint64_t>(Config.Optimizer));
  H.u64(Config.UseCounterexampleSearch ? 1 : 0);
  H.u64(Config.Seed);
  // The removed search-order setting (Lifo) and complete-fallback hook
  // (installed, diameter) are hashed at their former defaults, like the
  // CEGAR settings below.
  H.u64(0);
  H.u64(0);
  H.f64(0.05);
  // Kernel precision has one value, but stays hashed so digests computed
  // before the float32 mode was removed still match. The SIMD level is
  // deliberately NOT digested: per-level accumulation differences are
  // tolerance-class noise, like thread-count nondeterminism isn't.
  H.u64(static_cast<uint64_t>(Config.Precision));
  // The removed CEGAR settings (enabled, merge ratio, rounds, splits per
  // round) are hashed at their former defaults for the same reason: every
  // config digest, and every key persisted under one, stays unchanged.
  H.u64(0);
  H.f64(0.25);
  H.u64(12);
  H.u64(8);
  return H.digest();
}

uint64_t charon::digestVerifierConfig(const VerifierConfig &Config) {
  Fnv1a H;
  H.u64(digestVerifierConfigSemantics(Config));
  H.f64(Config.TimeLimitSeconds);
  H.u64(static_cast<uint64_t>(Config.MaxDepth));
  return H.digest();
}
