//===- SimdDispatch.cpp - Runtime SIMD backend selection -------------------===//

#include "linalg/SimdDispatch.h"

#include "linalg/SimdOpsImpl.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

using namespace charon;
using namespace charon::kernels;

const char *kernels::simdLevelName(SimdLevel Level) {
  return Level == SimdLevel::Avx2 ? "avx2" : "scalar";
}

namespace {

/// True when the running CPU can execute the AVX2 backend (the build having
/// compiled it is checked separately via avx2Ops()).
bool hostHasAvx2Fma() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool avx2Usable() { return detail::avx2Ops() != nullptr && hostHasAvx2Fma(); }

SimdLevel bestLevel() {
  return avx2Usable() ? SimdLevel::Avx2 : SimdLevel::Scalar;
}

/// CHARON_SIMD=auto|avx2|scalar. "scalar" pins the portable backend; "avx2"
/// requests AVX2 but degrades to the best available level when the build or
/// host lacks it (so scripted matrix runs do not crash on older machines);
/// anything else means auto.
SimdLevel initialLevel() {
  const char *Env = std::getenv("CHARON_SIMD");
  std::string Value = Env ? Env : "";
  for (char &C : Value)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Value == "scalar")
    return SimdLevel::Scalar;
  return bestLevel();
}

std::atomic<SimdLevel> &levelState() {
  static std::atomic<SimdLevel> Level{initialLevel()};
  return Level;
}

} // namespace

SimdLevel kernels::simdLevel() {
  return levelState().load(std::memory_order_relaxed);
}

bool kernels::setSimdLevel(SimdLevel Level) {
  if (Level == SimdLevel::Avx2 && !avx2Usable())
    return false;
  levelState().store(Level, std::memory_order_relaxed);
  return true;
}

std::vector<SimdLevel> kernels::availableSimdLevels() {
  std::vector<SimdLevel> Levels{SimdLevel::Scalar};
  if (avx2Usable())
    Levels.push_back(SimdLevel::Avx2);
  return Levels;
}

const detail::SimdOps &detail::activeOps() {
  if (simdLevel() == SimdLevel::Avx2)
    if (const SimdOps *Ops = avx2Ops())
      return *Ops;
  return scalarOps();
}
