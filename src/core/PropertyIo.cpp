//===- PropertyIo.cpp - Robustness property (de)serialization -----------------===//

#include "core/PropertyIo.h"

#include "support/TextFormat.h"

using namespace charon;

void charon::saveProperty(const RobustnessProperty &Prop, std::ostream &Os) {
  writeHeader(Os, "charon-property", 1);
  Os << "\nname " << (Prop.Name.empty() ? "unnamed" : Prop.Name) << "\n";
  Os << "target " << Prop.TargetClass << "\n";
  Os << "dim " << Prop.Region.dim() << "\n";
  writeBox(Os, Prop.Region);
}

std::optional<RobustnessProperty> charon::readProperty(TextReader &R) {
  RobustnessProperty Prop;
  std::string_view Name;
  size_t Dim = 0;
  if (!R.header("charon-property", 1) || !R.keyword("name") ||
      !R.token(Name))
    return std::nullopt;
  Prop.Name = Name;
  // Both bound lists must fit in the bytes left.
  if (!R.keyword("target") || !R.integer(Prop.TargetClass) ||
      !R.keyword("dim") || !R.count(Dim, 2) || Dim == 0 ||
      !R.box(Dim, Prop.Region))
    return std::nullopt;
  return Prop;
}

std::optional<RobustnessProperty> charon::loadProperty(std::istream &Is) {
  TextReader R(Is);
  return readProperty(R);
}

bool charon::savePropertyFile(const RobustnessProperty &Prop,
                              const std::string &Path) {
  return saveTextFile(Prop, Path, saveProperty);
}

std::optional<RobustnessProperty>
charon::loadPropertyFile(const std::string &Path) {
  return loadTextFile(Path, loadProperty);
}
