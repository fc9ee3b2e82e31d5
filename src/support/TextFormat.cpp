//===- TextFormat.cpp - The one reader and writer of the text formats --------===//

#include "support/TextFormat.h"

#include "linalg/Box.h"

#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

using namespace charon;

bool charon::parseNumber(std::string_view Token, double &Out) {
  if (Token.size() > 1 && Token[0] == '+' && Token[1] != '-')
    Token.remove_prefix(1);
  const char *End = Token.data() + Token.size();
  double V = 0.0;
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, V);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

namespace {

constexpr int Eof = std::char_traits<char>::eof();

bool isSpace(int C) {
  return C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
         C == '\f';
}

} // namespace

TextReader::TextReader(std::istream &Is) : Buf(Is.rdbuf()) {
  using std::ios_base;
  const std::streampos Fail(-1);
  std::streampos Here = Buf->pubseekoff(0, ios_base::cur, ios_base::in);
  std::streampos End =
      Here == Fail ? Fail : Buf->pubseekoff(0, ios_base::end, ios_base::in);
  if (End != Fail && Buf->pubseekpos(Here, ios_base::in) == Here) {
    Left = static_cast<uint64_t>(End - Here);
    return;
  }
  Owned = std::make_unique<std::stringbuf>(
      std::string(std::istreambuf_iterator<char>(Buf), {}), ios_base::in);
  Buf = Owned.get();
  Left = static_cast<uint64_t>(Buf->in_avail());
}

TextReader::TextReader(std::string_view Text)
    : Owned(std::make_unique<std::stringbuf>(std::string(Text),
                                             std::ios_base::in)),
      Left(Text.size()) {
  Buf = Owned.get();
}

bool TextReader::token(std::string_view &Out) {
  int C = Buf->sgetc();
  for (; C != Eof && isSpace(C); C = Buf->snextc())
    consume(1);
  if (C == Eof)
    return false;
  Tok.clear();
  for (; C != Eof && !isSpace(C); C = Buf->snextc())
    Tok.push_back(static_cast<char>(C));
  consume(Tok.size());
  Out = Tok;
  return true;
}

bool TextReader::keyword(std::string_view Word) {
  std::string_view Tok;
  return token(Tok) && Tok == Word;
}

bool TextReader::header(std::string_view Magic, int Version) {
  int V = 0;
  return keyword(Magic) && integer(V) && V == Version;
}

bool TextReader::number(double &Out) {
  std::string_view Tok;
  return token(Tok) && parseNumber(Tok, Out);
}

bool TextReader::numbers(double *Out, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (!number(Out[I]))
      return false;
  return true;
}

bool TextReader::count(size_t &N, uint64_t Width) {
  return integer(N) && fits(N, Width);
}

bool TextReader::fits(uint64_t Rows, uint64_t Cols, uint64_t Extra) const {
  if (Cols != 0 && Rows > Left / Cols)
    return false;
  return Extra <= Left - Rows * Cols;
}

bool TextReader::box(size_t Dim, Box &Out) {
  Vector Lo(Dim), Hi(Dim);
  if (!keyword("lower") || !numbers(Lo.data(), Dim) || !keyword("upper") ||
      !numbers(Hi.data(), Dim))
    return false;
  for (size_t I = 0; I < Dim; ++I)
    if (Lo[I] > Hi[I])
      return false;
  Out = Box(std::move(Lo), std::move(Hi));
  return true;
}

bool TextReader::path(std::vector<uint8_t> &Out) {
  std::string_view Tok;
  if (!token(Tok))
    return false;
  Out.clear();
  if (Tok == "-")
    return true;
  for (char C : Tok) {
    if (C != '0' && C != '1')
      return false;
    Out.push_back(C == '1' ? 1 : 0);
  }
  return true;
}

bool TextReader::peek(char C) {
  int Next = Buf->sgetc();
  for (; Next != Eof && isSpace(Next); Next = Buf->snextc())
    consume(1);
  return Next == static_cast<unsigned char>(C);
}

void TextReader::line(std::string &Out) {
  Out.clear();
  int C = Buf->sgetc();
  for (; C != Eof && C != '\n'; C = Buf->snextc())
    Out.push_back(static_cast<char>(C));
  consume(Out.size());
  if (C == '\n') {
    Buf->sbumpc();
    consume(1);
  }
}

bool TextReader::endLine() {
  int C = Buf->sgetc();
  for (; C == ' ' || C == '\t'; C = Buf->snextc())
    consume(1);
  if (C != '\n')
    return false;
  Buf->sbumpc();
  consume(1);
  return true;
}

bool TextReader::block(std::string &Out) {
  size_t Bytes = 0;
  if (!count(Bytes) || !endLine() || Bytes > Left)
    return false;
  Out.resize(Bytes);
  if (static_cast<size_t>(Buf->sgetn(Out.data(), Bytes)) != Bytes)
    return false;
  consume(Bytes);
  return true;
}

void charon::writeHeader(std::ostream &Os, std::string_view Magic,
                         int Version) {
  Os.precision(17);
  Os << Magic << " " << Version;
}

void charon::writeValues(std::ostream &Os, const double *V, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Os << " " << V[I];
}

void charon::writeRow(std::ostream &Os, const double *V, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Os << V[I] << " ";
  Os << "\n";
}

void charon::writeBox(std::ostream &Os, const Box &B) {
  Os << "lower";
  writeValues(Os, B.lower().data(), B.dim());
  Os << "\nupper";
  writeValues(Os, B.upper().data(), B.dim());
  Os << "\n";
}

void charon::writePath(std::ostream &Os, const std::vector<uint8_t> &Path) {
  if (Path.empty())
    Os << "-";
  for (uint8_t Bit : Path)
    Os << (Bit ? '1' : '0');
}

void charon::writeBlock(std::ostream &Os, const std::string &Text) {
  Os << Text.size() << "\n" << Text;
}
