//===- PropertyIo.cpp - Robustness property (de)serialization -----------------===//

#include "core/PropertyIo.h"

#include "support/TextBounds.h"

#include <fstream>
#include <iomanip>

using namespace charon;

void charon::saveProperty(const RobustnessProperty &Prop, std::ostream &Os) {
  Os << "charon-property 1\n";
  Os << "name " << (Prop.Name.empty() ? "unnamed" : Prop.Name) << "\n";
  Os << "target " << Prop.TargetClass << "\n";
  Os << "dim " << Prop.Region.dim() << "\n" << std::setprecision(17);
  Os << "lower";
  for (size_t I = 0, E = Prop.Region.dim(); I < E; ++I)
    Os << " " << Prop.Region.lower()[I];
  Os << "\nupper";
  for (size_t I = 0, E = Prop.Region.dim(); I < E; ++I)
    Os << " " << Prop.Region.upper()[I];
  Os << "\n";
}

namespace {

std::optional<RobustnessProperty> parseProperty(std::istream &Is) {
  std::string Magic, Key;
  int Version = 0;
  if (!(Is >> Magic >> Version) || Magic != "charon-property" || Version != 1)
    return std::nullopt;

  RobustnessProperty Prop;
  size_t Dim = 0;
  if (!(Is >> Key >> Prop.Name) || Key != "name")
    return std::nullopt;
  if (!(Is >> Key >> Prop.TargetClass) || Key != "target")
    return std::nullopt;
  // Both bound lists must fit in the bytes left.
  if (!(Is >> Key >> Dim) || Key != "dim" || Dim == 0 ||
      !valuesFit(Is, 2, Dim))
    return std::nullopt;

  Vector Lo(Dim), Hi(Dim);
  if (!(Is >> Key) || Key != "lower")
    return std::nullopt;
  for (size_t I = 0; I < Dim; ++I)
    if (!(Is >> Lo[I]))
      return std::nullopt;
  if (!(Is >> Key) || Key != "upper")
    return std::nullopt;
  for (size_t I = 0; I < Dim; ++I)
    if (!(Is >> Hi[I]))
      return std::nullopt;
  for (size_t I = 0; I < Dim; ++I)
    if (Lo[I] > Hi[I])
      return std::nullopt;
  Prop.Region = Box(std::move(Lo), std::move(Hi));
  return Prop;
}

} // namespace

std::optional<RobustnessProperty> charon::loadProperty(std::istream &Is) {
  return parseMeasured(Is, parseProperty);
}

bool charon::savePropertyFile(const RobustnessProperty &Prop,
                              const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  saveProperty(Prop, Os);
  return static_cast<bool>(Os);
}

std::optional<RobustnessProperty>
charon::loadPropertyFile(const std::string &Path) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return loadProperty(Is);
}
