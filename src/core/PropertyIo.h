//===- PropertyIo.h - Robustness property (de)serialization ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization for robustness properties (I, K) so specs can be
/// written by hand or generated by other tools and fed to the charon_cli
/// driver. Format:
/// \code
///   charon-property 1
///   name <token>
///   target <K>
///   dim <n>
///   lower <n values>
///   upper <n values>
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_PROPERTYIO_H
#define CHARON_CORE_PROPERTYIO_H

#include "core/Property.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace charon {
class TextReader;

/// Writes the property to \p Os in the documented text format.
void saveProperty(const RobustnessProperty &Prop, std::ostream &Os);

/// Parses a property from \p Is; nullopt on malformed input (bad magic,
/// inverted bounds, truncated data).
std::optional<RobustnessProperty> loadProperty(std::istream &Is);

/// Parses a property at \p R's position (for formats that embed one).
std::optional<RobustnessProperty> readProperty(TextReader &R);

/// File-path convenience wrappers.
bool savePropertyFile(const RobustnessProperty &Prop, const std::string &Path);
std::optional<RobustnessProperty> loadPropertyFile(const std::string &Path);

} // namespace charon

#endif // CHARON_CORE_PROPERTYIO_H
