//===- Verifier.cpp - The Charon decision procedure (Algorithm 1) -------------===//

#include "core/Verifier.h"

#include "search/SearchEngine.h"

using namespace charon;

const char *charon::toString(Outcome O) {
  switch (O) {
  case Outcome::Verified:
    return "verified";
  case Outcome::Falsified:
    return "falsified";
  case Outcome::Timeout:
    return "timeout";
  }
  return "unknown";
}

Verifier::Verifier(const Network &N, VerificationPolicy P, VerifierConfig C)
    : Net(N), Policy(std::move(P)), Config(std::move(C)) {}

VerifyResult Verifier::verify(const RobustnessProperty &Prop,
                              const SearchCheckpoint *Resume) const {
  return SearchEngine(Net, Policy, Config).run(Prop, Resume, nullptr);
}

VerifyResult Verifier::verifyParallel(const RobustnessProperty &Prop,
                                      ThreadPool &Pool,
                                      const SearchCheckpoint *Resume) const {
  return SearchEngine(Net, Policy, Config).run(Prop, Resume, &Pool);
}
