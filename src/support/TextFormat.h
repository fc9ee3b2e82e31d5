//===- TextFormat.h - The one reader and writer of the text formats -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Networks, properties, policies, checkpoints, certificates, fuzz repros
/// and the service's cache log share one text convention:
///
///  - a `charon-<kind> <version>` header;
///  - keyword-led lines of whitespace-separated tokens;
///  - doubles printed at 17 significant digits, which read back to the
///    same bits; a number must fill its whole token and be finite, so
///    `inf`, `nan`, hex floats and out-of-range values are refused;
///  - counts and digests are unsigned decimals without a sign, and a count
///    must fit in the bytes left (each value it announces takes at least
///    one byte);
///  - split paths are 0/1 strings, `-` for the empty (root) path;
///  - a nested text is a byte-counted block: `<bytes>\n<raw bytes>`.
///
/// TextReader reads tokens straight from a stream's buffer and converts
/// them with std::from_chars; it never copies a seekable stream. The writer
/// helpers print the same pieces, and loadTextFile/saveTextFile are the one
/// file wrapper every format uses.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_TEXTFORMAT_H
#define CHARON_SUPPORT_TEXTFORMAT_H

#include <charconv>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace charon {
class Box;

/// Parses a whole token as a finite double. A leading '+' is accepted.
bool parseNumber(std::string_view Token, double &Out);

/// Parses a whole token as a decimal integer of type \p T. Signed types
/// accept a leading '-' or '+'; unsigned types accept no sign.
template <typename T> bool parseInteger(std::string_view Token, T &Out) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::is_signed_v<T>)
    if (Token.size() > 1 && Token[0] == '+' && Token[1] != '-')
      Token.remove_prefix(1);
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

/// Reads the text formats. Every read returns false on malformed input and
/// leaves the reader unusable; parsers then return nullopt.
class TextReader {
public:
  /// Reads from \p Is's buffer, starting at its read position. A stream
  /// that cannot seek (a pipe) is copied first, so the bytes left are
  /// always known.
  explicit TextReader(std::istream &Is);
  /// Reads a copy of \p Text.
  explicit TextReader(std::string_view Text);

  /// The next whitespace-separated token, valid until the next read.
  bool token(std::string_view &Out);
  /// The next token, which must equal \p Word.
  bool keyword(std::string_view Word);
  /// The header `<Magic> <Version>`, e.g. `charon-network 1`.
  bool header(std::string_view Magic, int Version);
  /// The next token, which must be the toString() name of one of
  /// \p Options.
  template <typename E> bool oneOf(std::initializer_list<E> Options, E &Out) {
    std::string_view Tok;
    if (!token(Tok))
      return false;
    for (E O : Options)
      if (Tok == toString(O)) {
        Out = O;
        return true;
      }
    return false;
  }
  /// One finite double (see parseNumber).
  bool number(double &Out);
  /// \p N doubles into \p Out.
  bool numbers(double *Out, size_t N);
  /// One integer (see parseInteger).
  template <typename T> bool integer(T &Out) {
    std::string_view Tok;
    return token(Tok) && parseInteger(Tok, Out);
  }
  /// An unsigned count \p N of items \p Width values wide; refused when
  /// N x Width values could not fit in the bytes left.
  bool count(size_t &N, uint64_t Width = 1);
  /// True when \p Rows x \p Cols + \p Extra values, one byte each at
  /// least, fit in the bytes left. Computed without overflow.
  bool fits(uint64_t Rows, uint64_t Cols = 1, uint64_t Extra = 0) const;
  /// `lower <Dim values>` then `upper <Dim values>`, each lower bound at
  /// most its upper bound.
  bool box(size_t Dim, Box &Out);
  /// A split path: `-` for the root, else a string of 0s and 1s.
  bool path(std::vector<uint8_t> &Out);
  /// True when the next token starts with \p C. Skips the whitespace
  /// before it and consumes nothing else.
  bool peek(char C);
  /// The rest of the current line, without its newline, which is consumed.
  void line(std::string &Out);
  /// Spaces and tabs, then one newline.
  bool endLine();
  /// A byte-counted block `<bytes>\n<raw bytes>`.
  bool block(std::string &Out);
  /// True when no byte is left.
  bool atEnd() const { return Left == 0; }
  /// Bytes consumed since the reader started.
  uint64_t offset() const { return Consumed; }

private:
  void consume(uint64_t N) {
    Consumed += N;
    Left -= N < Left ? N : Left;
  }

  std::streambuf *Buf = nullptr;
  std::unique_ptr<std::streambuf> Owned;
  uint64_t Left = 0;
  uint64_t Consumed = 0;
  std::string Tok;
};

/// Writes `<Magic> <Version>` with no newline, and sets \p Os to print
/// doubles at 17 significant digits.
void writeHeader(std::ostream &Os, std::string_view Magic, int Version);
/// Writes " v0 v1 ..." (a space before each value).
void writeValues(std::ostream &Os, const double *V, size_t N);
/// Writes "v0 v1 ... \n" (a space after each value), the row layout of
/// networks and policies.
void writeRow(std::ostream &Os, const double *V, size_t N);
/// Writes "lower ...\nupper ...\n".
void writeBox(std::ostream &Os, const Box &B);
/// Writes a split path (see TextReader::path).
void writePath(std::ostream &Os, const std::vector<uint8_t> &Path);
/// Writes a byte-counted block (see TextReader::block).
void writeBlock(std::ostream &Os, const std::string &Text);

/// Saves \p Value to \p Path with \p Save; false when the file cannot be
/// written.
template <typename T, typename SaveFn>
bool saveTextFile(const T &Value, const std::string &Path, SaveFn Save) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  Save(Value, Os);
  return static_cast<bool>(Os);
}

/// Loads \p Path with \p Load; nullopt when the file cannot be opened.
template <typename LoadFn>
auto loadTextFile(const std::string &Path, LoadFn Load)
    -> decltype(Load(std::declval<std::istream &>())) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return Load(Is);
}

} // namespace charon

#endif // CHARON_SUPPORT_TEXTFORMAT_H
