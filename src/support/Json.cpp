//===- support/Json.cpp - The one JSON/hex-float codec --------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace vrp;
using namespace vrp::json;

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Scans an unsigned decimal at S[Pos]; null on success, else the reason.
const char *scanUnsigned(std::string_view S, size_t &Pos, uint64_t &Out,
                         uint64_t Max) {
  if (Pos >= S.size() || !isDigit(S[Pos]))
    return "expected number";
  uint64_t V = 0;
  for (; Pos < S.size() && isDigit(S[Pos]); ++Pos) {
    uint64_t Digit = static_cast<uint64_t>(S[Pos] - '0');
    if (Digit > Max || V > (Max - Digit) / 10)
      return "number out of range";
    V = V * 10 + Digit;
  }
  Out = V;
  return nullptr;
}

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

} // namespace

std::string json::escape(std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    auto U = static_cast<unsigned char>(C);
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
      if (U < 0x20) {
        Out += "\\u00";
        Out += Hex[U >> 4];
        Out += Hex[U & 0xf];
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string json::hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

bool json::parseHexDouble(std::string_view S, double &Out) {
  // strtod needs a terminator; no "%a" rendering comes near 64 bytes.
  char Buf[64];
  if (S.empty() || S.size() >= sizeof(Buf) || S[0] == ' ' || S[0] == '\t' ||
      S[0] == '\n' || S[0] == '\r' || S[0] == '\v' || S[0] == '\f')
    return false;
  std::memcpy(Buf, S.data(), S.size());
  Buf[S.size()] = '\0';
  char *End = nullptr;
  Out = std::strtod(Buf, &End);
  return End == Buf + S.size();
}

bool json::parseUnsigned(std::string_view S, uint64_t &Out) {
  size_t Pos = 0;
  return !scanUnsigned(S, Pos, Out, UINT64_MAX) && Pos == S.size();
}

//===----------------------------------------------------------------------===//
// Cursor
//===----------------------------------------------------------------------===//

bool Cursor::fail(std::string_view Why) {
  if (!Failed)
    Error = Why;
  Failed = true;
  return false;
}

void Cursor::skipWs() {
  while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                            S[Pos] == '\n' || S[Pos] == '\r'))
    ++Pos;
}

bool Cursor::atEnd() {
  skipWs();
  return !Failed && Pos == S.size();
}

bool Cursor::peek(char C) {
  skipWs();
  return !Failed && Pos < S.size() && S[Pos] == C;
}

bool Cursor::lit(std::string_view Literal) {
  if (Failed)
    return false;
  skipWs();
  if (S.substr(Pos, Literal.size()) != Literal)
    return fail("expected '" + std::string(Literal) + "'");
  Pos += Literal.size();
  return true;
}

bool Cursor::str(std::string &Out) {
  Out.clear();
  if (!lit("\""))
    return false;
  while (Pos < S.size()) {
    // Copy the run up to the next quote or escape in one go: payloads
    // (VL sources, rendered reports) are long and mostly plain.
    size_t Stop = S.find_first_of("\"\\", Pos);
    if (Stop == std::string_view::npos)
      break;
    Out.append(S.data() + Pos, Stop - Pos);
    Pos = Stop + 1;
    if (S[Stop] == '"')
      return true;
    if (Pos >= S.size())
      return fail("dangling escape");
    switch (S[Pos++]) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case '/':
      Out += '/';
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'u': {
      if (Pos + 4 > S.size())
        return fail("truncated \\u escape");
      unsigned V = 0;
      for (int I = 0; I < 4; ++I) {
        int D = hexDigit(S[Pos++]);
        if (D < 0)
          return fail("bad \\u escape");
        V = V << 4 | static_cast<unsigned>(D);
      }
      // Strings carry bytes: escape() only writes \u00xx.
      if (V > 0xff)
        return fail("\\u escape beyond latin-1");
      Out += static_cast<char>(V);
      break;
    }
    default:
      return fail("unknown escape");
    }
  }
  return fail("unterminated string");
}

bool Cursor::uint(uint64_t &Out, uint64_t Max) {
  if (Failed)
    return false;
  skipWs();
  if (const char *Why = scanUnsigned(S, Pos, Out, Max))
    return fail(Why);
  return true;
}

bool Cursor::u32(unsigned &Out) {
  uint64_t V = 0;
  if (!uint(V, UINT32_MAX))
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

bool Cursor::boolean(bool &Out) {
  if (peek('t') && lit("true")) {
    Out = true;
    return true;
  }
  if (peek('f') && lit("false")) {
    Out = false;
    return true;
  }
  return fail("expected bool");
}

bool Cursor::hexDouble(double &Out) {
  std::string Text;
  if (!str(Text))
    return false;
  if (!parseHexDouble(Text, Out))
    return fail("expected hex float");
  return true;
}

bool Cursor::skipScalar() {
  skipWs();
  if (Failed || Pos >= S.size())
    return fail("expected value");
  char C = S[Pos];
  if (C == '"') {
    std::string Dropped;
    return str(Dropped);
  }
  if (C == 't' || C == 'f') {
    bool Dropped;
    return boolean(Dropped);
  }
  if (C == 'n')
    return lit("null");
  if (C == '-' || isDigit(C)) {
    ++Pos;
    while (Pos < S.size() &&
           (hexDigit(S[Pos]) >= 0 || S[Pos] == '.' || S[Pos] == '+' ||
            S[Pos] == '-' || S[Pos] == 'x' || S[Pos] == 'p' || S[Pos] == 'P'))
      ++Pos;
    return true;
  }
  return fail("unknown key holds a non-scalar value");
}
