//===- Property.h - Robustness properties -------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A robustness property is a pair (I, K) with input region I and target
/// class K (Sec. 2.2): the network satisfies it when every x in I gets
/// class K, i.e. N(x)_K > N(x)_j for all j != K.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_PROPERTY_H
#define CHARON_CORE_PROPERTY_H

#include "linalg/Box.h"
#include "nn/Network.h"

#include <cmath>
#include <string>

namespace charon {

/// Robustness property (I, K) with an optional name for reports.
struct RobustnessProperty {
  Box Region;
  size_t TargetClass = 0;
  std::string Name;
};

/// True when \p Prop can be asked of \p Net: the region has the network's
/// input dimension, every bound is finite with lower <= upper (Box checks
/// the order only in asserts), and the target is one of at least two
/// outputs (the objective compares it with a competing class).
inline bool propertyFitsNetwork(const RobustnessProperty &Prop,
                                const Network &Net) {
  const Vector &Lo = Prop.Region.lower();
  const Vector &Hi = Prop.Region.upper();
  for (size_t I = 0; I < Prop.Region.dim(); ++I)
    if (!(std::isfinite(Lo[I]) && std::isfinite(Hi[I]) && Lo[I] <= Hi[I]))
      return false;
  return Prop.Region.dim() == Net.inputSize() && Net.outputSize() >= 2 &&
         Prop.TargetClass < Net.outputSize();
}

} // namespace charon

#endif // CHARON_CORE_PROPERTY_H
