//===- JsonLine.h - Minimal JSON-lines object parser/printer ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON dialect of the service batch protocol (service/RequestIo.h): a
/// single flat object per line whose values are strings, numbers,
/// booleans, or arrays of numbers. Hand-rolled because the protocol needs
/// nothing more and the project takes no external dependencies.
///
/// Numbers print with %.17g, which round-trips every finite double
/// exactly, and parse only as finite decimals: inf, nan, hex and values
/// beyond double's range are refused.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_JSONLINE_H
#define CHARON_SUPPORT_JSONLINE_H

#include <map>
#include <string>
#include <vector>

namespace charon {
namespace json {

/// One parsed value of the supported subset.
struct Value {
  enum Kind { Str, Num, Bool, NumArray } K = Num;
  std::string S;
  double N = 0.0;
  bool B = false;
  std::vector<double> A;
};

/// A parsed line: one flat object, keys in sorted order.
using Object = std::map<std::string, Value>;

/// Parses \p Line as one flat object. Returns false on any syntax error
/// (and stores a human-readable reason in \p Error when non-null).
/// Duplicate keys, nested objects, trailing characters, and unsupported
/// escapes are all errors so typos fail loudly.
bool parseObjectLine(const std::string &Line, Object &Out,
                     std::string *Error = nullptr);

/// Appends \p S as a quoted, escaped JSON string.
void appendEscaped(std::string &Out, const std::string &S);

/// Appends \p X with round-trip (%.17g) precision.
void appendNumber(std::string &Out, double X);

} // namespace json
} // namespace charon

#endif // CHARON_SUPPORT_JSONLINE_H
