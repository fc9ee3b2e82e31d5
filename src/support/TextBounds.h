//===- TextBounds.h - Count checks for text parsers -------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text formats prefix value lists with counts. A parser checks each
/// count against the bytes left in its stream before it sizes an
/// allocation: every value takes at least one byte, so a count beyond them
/// is damage, never data.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_TEXTBOUNDS_H
#define CHARON_SUPPORT_TEXTBOUNDS_H

#include <cstdint>
#include <istream>
#include <iterator>
#include <sstream>
#include <string>

namespace charon {

/// Bytes from the read position of \p Is to its end, or -1 when the stream
/// cannot seek (a pipe). The read position is left where it was.
inline std::streamoff bytesLeft(std::istream &Is) {
  using std::ios_base;
  std::streambuf *Buf = Is.rdbuf();
  const std::streampos Fail(-1);
  std::streampos Here = Buf->pubseekoff(0, ios_base::cur, ios_base::in);
  if (Here == Fail)
    return -1;
  std::streampos End = Buf->pubseekoff(0, ios_base::end, ios_base::in);
  Buf->pubseekpos(Here, ios_base::in);
  return End == Fail ? -1 : End - Here;
}

/// True when \p Rows x \p Cols + \p Extra values, one byte each at least,
/// fit in the bytes left in \p Is. Computed without overflow.
inline bool valuesFit(std::istream &Is, uint64_t Rows, uint64_t Cols = 1,
                      uint64_t Extra = 0) {
  std::streamoff Avail = bytesLeft(Is);
  if (Avail < 0)
    return false;
  uint64_t Left = static_cast<uint64_t>(Avail);
  if (Cols != 0 && Rows > Left / Cols)
    return false;
  return Extra <= Left - Rows * Cols;
}

/// Runs \p Parse on \p Is, or, when \p Is cannot seek, on an in-memory copy
/// of the rest of it, so that valuesFit() can always measure the bytes
/// left. Seekable streams are read in place, without a copy of the text.
template <typename ParseFn>
auto parseMeasured(std::istream &Is, ParseFn Parse) -> decltype(Parse(Is)) {
  if (bytesLeft(Is) >= 0)
    return Parse(Is);
  std::istringstream Copy{std::string(std::istreambuf_iterator<char>(Is),
                                      std::istreambuf_iterator<char>())};
  return Parse(Copy);
}

} // namespace charon

#endif // CHARON_SUPPORT_TEXTBOUNDS_H
