//===- tests/support/JsonTest.cpp - The shared JSON/hex-float codec ------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Contracts of support/Json, the one codec the journal, the predictord
// protocol, the stats JSON and the persistent cache share: hex floats
// round-trip bitwise at the edges of the double range, every byte
// survives escape-then-parse, numbers are bounded and unsigned, and the
// malformed messages the protocol rejects stay rejected with their
// error texts.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

using namespace vrp;

namespace {

uint64_t bits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

TEST(JsonTest, HexDoubleRoundTripsBitwise) {
  const double Cases[] = {
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0 - std::ldexp(1.0, -53), // Largest double below 1.
      0.1,
      1e-6,
      100.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (double V : Cases) {
    std::string Text = json::hexDouble(V);
    double Back = 1.5;
    ASSERT_TRUE(json::parseHexDouble(Text, Back)) << Text;
    EXPECT_EQ(bits(V), bits(Back)) << Text;

    // The same value inside a JSON string, through the cursor.
    std::string Quoted = "\"" + Text + "\"";
    json::Cursor C(Quoted);
    Back = 1.5;
    ASSERT_TRUE(C.hexDouble(Back)) << C.error();
    EXPECT_TRUE(C.atEnd());
    EXPECT_EQ(bits(V), bits(Back)) << Text;
  }
  EXPECT_EQ("-0x0p+0", json::hexDouble(-0.0));
}

TEST(JsonTest, HexDoubleRejectsPartialText) {
  double V = 0;
  EXPECT_FALSE(json::parseHexDouble("", V));
  EXPECT_FALSE(json::parseHexDouble(" 0x1p+0", V));
  EXPECT_FALSE(json::parseHexDouble("0x1p+0 ", V));
  EXPECT_FALSE(json::parseHexDouble("0x1p+0x", V));
  EXPECT_FALSE(json::parseHexDouble("pi", V));
  EXPECT_FALSE(json::parseHexDouble(std::string(80, '1'), V));
}

TEST(JsonTest, EveryByteSurvivesEscapeAndParse) {
  std::string All;
  for (unsigned B = 0; B <= 0xff; ++B)
    All += static_cast<char>(B);
  std::string Quoted = "\"" + json::escape(All) + "\"";
  // The escaped text is a single line of printable ASCII plus the
  // untouched high bytes: no raw control byte leaks into a JSONL line.
  for (char C : Quoted)
    EXPECT_FALSE(static_cast<unsigned char>(C) < 0x20);

  json::Cursor C(Quoted);
  std::string Back;
  ASSERT_TRUE(C.str(Back)) << C.error();
  EXPECT_TRUE(C.atEnd());
  EXPECT_EQ(All, Back);

  // Each byte alone, too: no escape depends on its neighbours.
  for (unsigned B = 0; B <= 0xff; ++B) {
    std::string One(1, static_cast<char>(B));
    std::string Q = "\"" + json::escape(One) + "\"";
    json::Cursor C1(Q);
    std::string Out;
    ASSERT_TRUE(C1.str(Out)) << "byte " << B << ": " << C1.error();
    EXPECT_EQ(One, Out) << "byte " << B;
  }
}

TEST(JsonTest, EscapeSpellsTheShortFormsAndLowercaseHex) {
  EXPECT_EQ("a\\\"b\\\\c\\nd\\te\\rf", json::escape("a\"b\\c\nd\te\rf"));
  EXPECT_EQ("\\u0001\\u001f", json::escape("\x01\x1f"));
  EXPECT_EQ("\x7f\xff", json::escape("\x7f\xff"));
}

TEST(JsonTest, UnsignedNumbersAreBoundedAndUnsigned) {
  uint64_t V = 0;
  EXPECT_TRUE(json::parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(UINT64_MAX, V);
  EXPECT_FALSE(json::parseUnsigned("18446744073709551616", V));
  EXPECT_FALSE(json::parseUnsigned("-1", V));
  EXPECT_FALSE(json::parseUnsigned("+1", V));
  EXPECT_FALSE(json::parseUnsigned(" 1", V));
  EXPECT_FALSE(json::parseUnsigned("1 ", V));
  EXPECT_FALSE(json::parseUnsigned("", V));

  unsigned U = 0;
  json::Cursor Max("4294967295");
  EXPECT_TRUE(Max.u32(U));
  EXPECT_EQ(UINT32_MAX, U);
  json::Cursor Over("4294967296");
  EXPECT_FALSE(Over.u32(U));
  EXPECT_NE(std::string::npos, Over.error().find("out of range"));
  json::Cursor Neg("-1");
  EXPECT_FALSE(Neg.uint(V));
}

TEST(JsonTest, FirstFailureSticks) {
  json::Cursor C("[1,x,3]");
  uint64_t A = 0, B = 0, D = 0;
  C.lit("[");
  C.uint(A);
  C.lit(",");
  C.uint(B); // Fails here...
  C.lit(",");
  C.uint(D); // ...and nothing after it succeeds.
  EXPECT_TRUE(C.failed());
  EXPECT_FALSE(C.atEnd());
  EXPECT_EQ("expected number", C.error());
  EXPECT_EQ(1u, A);
  EXPECT_EQ(0u, D);
}

TEST(JsonTest, MalformedStringsRejected) {
  for (const char *Bad : {"\"open", "\"dangling\\", "\"\\q\"", "\"\\u12\"",
                          "\"\\u00zz\"", "\"\\u0100\"", "noquote"}) {
    json::Cursor C(Bad);
    std::string Out;
    EXPECT_FALSE(C.str(Out)) << Bad;
    EXPECT_FALSE(C.error().empty()) << Bad;
  }
}

TEST(JsonTest, SkipScalarSkipsScalarsOnly) {
  for (const char *Ok : {"\"x\"", "true", "false", "null", "12", "-1.5e3",
                         "0x1.8p-1"}) {
    json::Cursor C(Ok);
    EXPECT_TRUE(C.skipScalar()) << Ok;
    EXPECT_TRUE(C.atEnd()) << Ok;
  }
  for (const char *Bad : {"{}", "[1]", "", "nul"}) {
    json::Cursor C(Bad);
    EXPECT_FALSE(C.skipScalar()) << Bad;
  }
}

TEST(JsonTest, ProtocolStillRejectsEveryMalformedMessage) {
  serve::Request R;
  std::string Err;
  for (const char *Bad : {"", "not json", "{\"method\":\"ping\"",
                          "{\"method\":\"ping\"}trailing", "{\"method\":12}",
                          "{\"id\":\"nan\"}", "{\"id\":-1,\"method\":\"ping\"}",
                          "{\"id\":18446744073709551616,\"method\":\"ping\"}",
                          "{\"method\":\"ping\",\"nested\":{}}"}) {
    Err.clear();
    EXPECT_FALSE(serve::parseRequest(Bad, R, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  EXPECT_FALSE(serve::parseRequest("{\"id\":1}", R, &Err));
  EXPECT_NE(std::string::npos, Err.find("method"));

  serve::Response Resp;
  EXPECT_FALSE(serve::parseResponse("{\"status\":\"bogus\"}", Resp, &Err));
  EXPECT_NE(std::string::npos, Err.find("status"));
}

} // namespace
