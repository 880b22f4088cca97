//===- support/Json.h - The one JSON/hex-float codec ------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec every durable or wire format in the repository shares: the
/// suite journal (eval/Journal), the predictord protocol (serve/Protocol),
/// the served `analyze` payload, the stats JSON, and the persistent
/// cache's payloads and options key (analysis/PersistentCache).
///
///   - escape(): JSON string escaping — \" \\ \n \t \r, every other
///     control byte as \u00xx, all other bytes verbatim.
///   - hexDouble()/parseHexDouble(): doubles as printf "%a" hex floats,
///     which round-trip every finite double bitwise. The bitwise-identical
///     resume, warm-start and served-report guarantees depend on this.
///   - Cursor: a strict scanner over exactly the JSON shapes the repository
///     emits (flat objects, arrays of scalars, strings, bounded unsigned
///     integers, booleans, hex-float strings). The first malformed token
///     fails the cursor for good and records why. Callers therefore can
///     run a fixed sequence of reads and check failed() once at the end.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_JSON_H
#define VRP_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

namespace vrp::json {

/// \p S escaped for use between the quotes of a JSON string.
std::string escape(std::string_view S);

/// Exact rendering of \p V as a "%a" hex float ("0x1.8p-1", "-0x0p+0").
std::string hexDouble(double V);

/// Parses all of \p S as a double (hex floats parse back bitwise). Empty
/// input, leading whitespace and trailing bytes are rejected.
bool parseHexDouble(std::string_view S, double &Out);

/// Parses all of \p S as an unsigned 64-bit decimal. Signs, whitespace,
/// trailing bytes and overflow are rejected.
bool parseUnsigned(std::string_view S, uint64_t &Out);

/// Parses all of \p S as a signed 64-bit decimal: an optional '-', then
/// digits. A '+' sign, whitespace, trailing bytes and values outside
/// [INT64_MIN, INT64_MAX] are rejected.
bool parseSigned(std::string_view S, int64_t &Out);

/// Strict scanner over one JSON text. Whitespace between tokens is
/// skipped. \p Text must outlive the cursor.
class Cursor {
public:
  explicit Cursor(std::string_view Text) : S(Text) {}

  bool failed() const { return Failed; }
  /// Why the cursor failed (the first failure wins); empty if it did not.
  const std::string &error() const { return Error; }

  /// True when only whitespace is left (and the cursor has not failed).
  bool atEnd();
  /// True when the next token starts with \p C; consumes nothing.
  bool peek(char C);
  /// Consumes exactly \p Literal.
  bool lit(std::string_view Literal);

  bool str(std::string &Out);
  /// An unsigned decimal no larger than \p Max.
  bool uint(uint64_t &Out, uint64_t Max = UINT64_MAX);
  bool u32(unsigned &Out);
  bool boolean(bool &Out);
  /// A hexDouble() rendering inside a JSON string.
  bool hexDouble(double &Out);
  /// Skips one scalar value (string, number, bool or null) of a key the
  /// reader does not know.
  bool skipScalar();

private:
  /// Records \p Why (unless a failure is already recorded); returns false.
  bool fail(std::string_view Why);
  void skipWs();

  std::string_view S;
  size_t Pos = 0;
  bool Failed = false;
  std::string Error;
};

} // namespace vrp::json

#endif // VRP_SUPPORT_JSON_H
