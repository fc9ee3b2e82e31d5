//===- PolicyIo.cpp - Verification policy (de)serialization -------------------===//

#include "core/PolicyIo.h"

#include "support/TextFormat.h"

using namespace charon;

void charon::savePolicy(const VerificationPolicy &Policy, std::ostream &Os) {
  writeHeader(Os, "charon-policy", 1);
  Os << " " << PolicyNumOutputs << " " << PolicyNumFeatures << "\n";
  const Matrix &Theta = Policy.parameters();
  for (size_t R = 0; R < Theta.rows(); ++R)
    writeRow(Os, Theta.row(R), Theta.cols());
}

std::optional<VerificationPolicy> charon::loadPolicy(std::istream &Is) {
  TextReader R(Is);
  size_t Rows = 0, Cols = 0;
  if (!R.header("charon-policy", 1) || !R.integer(Rows) || !R.integer(Cols) ||
      Rows != PolicyNumOutputs || Cols != PolicyNumFeatures)
    return std::nullopt;
  Matrix Theta(Rows, Cols);
  for (size_t Row = 0; Row < Rows; ++Row)
    if (!R.numbers(Theta.row(Row), Cols))
      return std::nullopt;
  return VerificationPolicy(std::move(Theta));
}

bool charon::savePolicyFile(const VerificationPolicy &Policy,
                            const std::string &Path) {
  return saveTextFile(Policy, Path, savePolicy);
}

std::optional<VerificationPolicy>
charon::loadPolicyFile(const std::string &Path) {
  return loadTextFile(Path, loadPolicy);
}
