//===- JsonLine.cpp - Minimal JSON-lines object parser/printer ----------------===//

#include "support/JsonLine.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace charon;
using namespace charon::json;

namespace {

class LineParser {
public:
  explicit LineParser(const std::string &Line)
      : P(Line.c_str()), End(Line.c_str() + Line.size()) {}

  /// Parses the whole line as one object; false on any syntax error.
  bool parse(Object &Out) {
    skipWs();
    if (!consume('{'))
      return fail("expected '{'");
    skipWs();
    if (consume('}'))
      return atEnd();
    while (true) {
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':'");
      Value V;
      if (!parseValue(V))
        return false;
      if (!Out.emplace(std::move(Key), std::move(V)).second)
        return fail("duplicate key");
      skipWs();
      if (consume(',')) {
        skipWs();
        continue;
      }
      if (consume('}'))
        return atEnd();
      return fail("expected ',' or '}'");
    }
  }

  const std::string &error() const { return Err; }

private:
  bool atEnd() {
    skipWs();
    return P == End ? true : fail("trailing characters");
  }

  bool fail(const char *Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (P != End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }

  bool consume(char C) {
    if (P != End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool parseString(std::string &Out) {
    skipWs();
    if (!consume('"'))
      return fail("expected string");
    Out.clear();
    while (P != End && *P != '"') {
      char C = *P++;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (P == End)
        return fail("truncated escape");
      switch (*P++) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      default:
        return fail("unsupported escape");
      }
    }
    if (!consume('"'))
      return fail("unterminated string");
    return true;
  }

  /// One finite number in decimal: no hex, inf, nan, or value beyond
  /// double's range.
  bool parseNumber(double &Out) {
    auto [NumEnd, Ec] = std::from_chars(P, End, Out);
    if (Ec != std::errc() || !std::isfinite(Out))
      return fail("expected a finite number");
    P = NumEnd;
    return true;
  }

  bool parseValue(Value &V) {
    skipWs();
    if (P == End)
      return fail("missing value");
    if (*P == '"') {
      V.K = Value::Str;
      return parseString(V.S);
    }
    if (*P == '[') {
      ++P;
      V.K = Value::NumArray;
      skipWs();
      if (consume(']'))
        return true;
      while (true) {
        double X;
        if (!parseNumber(X))
          return false;
        V.A.push_back(X);
        skipWs();
        if (consume(',')) {
          skipWs();
          continue;
        }
        if (consume(']'))
          return true;
        return fail("expected ',' or ']'");
      }
    }
    if (!std::strncmp(P, "true", 4)) {
      P += 4;
      V.K = Value::Bool;
      V.B = true;
      return true;
    }
    if (!std::strncmp(P, "false", 5)) {
      P += 5;
      V.K = Value::Bool;
      V.B = false;
      return true;
    }
    V.K = Value::Num;
    return parseNumber(V.N);
  }

  const char *P;
  const char *End;
  std::string Err;
};

} // namespace

bool charon::json::parseObjectLine(const std::string &Line, Object &Out,
                                   std::string *Error) {
  LineParser Parser(Line);
  if (Parser.parse(Out))
    return true;
  if (Error)
    *Error = Parser.error();
  return false;
}

void charon::json::appendEscaped(std::string &Out, const std::string &S) {
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out.push_back(C);
    }
  }
  Out.push_back('"');
}

void charon::json::appendNumber(std::string &Out, double X) {
  char Buf[40];
  // %.17g round-trips every finite double exactly.
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  Out += Buf;
}
