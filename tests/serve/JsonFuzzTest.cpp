//===- tests/serve/JsonFuzzTest.cpp - Hostile-input tests for serve/Json --===//
//
// The dc_serve wire format is line-delimited JSON parsed from untrusted
// sockets, so the parser's contract is: any byte string either yields a
// value or a structured error with a byte offset — it never crashes,
// never overflows the stack, and never loops. These tests pin that
// contract with a hand-written table of malformed documents plus two
// deterministic fuzz-style sweeps (a seeded LCG stands in for a fuzzer,
// so failures replay exactly).
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using dc::serve::Json;

namespace {

/// Parses and requires failure with a populated, offset-carrying error.
void expectParseError(const std::string &Text, const std::string &Label) {
  std::string Err;
  std::optional<Json> J = Json::parse(Text, &Err);
  EXPECT_FALSE(J.has_value()) << Label << ": parsed " << Text;
  EXPECT_FALSE(Err.empty()) << Label << ": error message missing";
  EXPECT_NE(Err.find(" at offset "), std::string::npos)
      << Label << ": error lacks a byte offset: " << Err;
}

/// Deep structural equality, exact for the values our generator emits
/// (integers stay integers; doubles round-trip exactly through the
/// writer's %.17g rendering).
bool jsonEq(const Json &A, const Json &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case Json::Kind::Null:
    return true;
  case Json::Kind::Bool:
    return A.asBool() == B.asBool();
  case Json::Kind::Number:
    // A whole-valued double dumps without a fraction and re-parses as
    // an integer — JSON itself has one number type, so the numeric
    // value is what round-trips, not the integer flag.
    if (A.isInteger() && B.isInteger())
      return A.asInteger() == B.asInteger();
    return A.asNumber() == B.asNumber();
  case Json::Kind::String:
    return A.asString() == B.asString();
  case Json::Kind::Array: {
    if (A.items().size() != B.items().size())
      return false;
    for (size_t I = 0; I < A.items().size(); ++I)
      if (!jsonEq(A.items()[I], B.items()[I]))
        return false;
    return true;
  }
  case Json::Kind::Object: {
    if (A.members().size() != B.members().size())
      return false;
    for (size_t I = 0; I < A.members().size(); ++I)
      if (A.members()[I].first != B.members()[I].first ||
          !jsonEq(A.members()[I].second, B.members()[I].second))
        return false;
    return true;
  }
  }
  return false;
}

/// Tiny deterministic PRNG (LCG, same constants as PropertyTest) so the
/// "fuzz" corpus is identical on every run and every platform.
class Lcg {
public:
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  uint64_t next(uint64_t Bound) { return Bound ? next() % Bound : 0; }

private:
  uint64_t State;
};

TEST(JsonFuzzTest, MalformedDocumentsFailWithStructuredErrors) {
  struct Row {
    const char *Label;
    const char *Text;
  };
  const Row Rows[] = {
      // Truncations of every syntactic construct.
      {"empty input", ""},
      {"whitespace only", "  \t\r\n "},
      {"lone brace", "{"},
      {"lone bracket", "["},
      {"object cut after key", "{\"a\""},
      {"object cut after colon", "{\"a\":"},
      {"object cut after value", "{\"a\":1"},
      {"object cut after comma", "{\"a\":1,"},
      {"array cut after value", "[1,2"},
      {"array cut after comma", "[1,2,"},
      {"unterminated string", "\"abc"},
      {"unterminated escape", "\"abc\\"},
      {"truncated literal true", "tru"},
      {"truncated literal null", "nul"},
      // Structural garbage.
      {"bare comma", ","},
      {"missing colon", "{\"a\" 1}"},
      {"non-string key", "{1:2}"},
      {"double comma in array", "[1,,2]"},
      {"closing wrong bracket", "[1}"},
      {"two documents", "{} {}"},
      {"trailing garbage", "nullx"},
      {"misspelled literal", "flase"},
      // Number edges.
      {"bare minus", "-"},
      {"minus then junk", "-x"},
      {"exponent with no digits", "1e"},
      {"hex is not json", "0x10"},
      // String and escape edges.
      {"unknown escape", "\"\\q\""},
      {"bad hex in unicode escape", "\"\\uZZZZ\""},
      {"truncated unicode escape", "\"\\u00\""},
      {"unpaired high surrogate", "\"\\ud800\""},
      {"high surrogate then text", "\"\\ud800x\""},
      {"unpaired low surrogate", "\"\\udc00\""},
      {"raw newline inside string", "\"a\nb\""},
      {"raw control char in string", "\"a\x01b\""},
  };
  for (const Row &R : Rows)
    expectParseError(R.Text, R.Label);
}

TEST(JsonFuzzTest, EveryPrefixOfAContainerDocumentFails) {
  // A document that opens with a container has no valid proper prefix,
  // so truncating it at every byte must produce an error — exercising
  // the end-of-input check in each parser state.
  const std::string Doc =
      "{\"id\":42,\"xs\":[1,-2.5,\"a\\u0041b\"],\"deep\":{\"ok\":true,"
      "\"none\":null},\"s\":\"line\\nbreak\"}";
  ASSERT_TRUE(Json::parse(Doc).has_value());
  for (size_t Len = 0; Len < Doc.size(); ++Len)
    expectParseError(Doc.substr(0, Len), "prefix len " + std::to_string(Len));
}

TEST(JsonFuzzTest, NestingIsAcceptedUpToMaxDepthAndRefusedBeyond) {
  auto nested = [](int N) {
    std::string S(static_cast<size_t>(N), '[');
    S += "null";
    S.append(static_cast<size_t>(N), ']');
    return S;
  };
  // Exactly MaxDepth containers is the last accepted document.
  EXPECT_TRUE(Json::parse(nested(Json::MaxDepth)).has_value());
  std::string Err;
  EXPECT_FALSE(Json::parse(nested(Json::MaxDepth + 1), &Err).has_value());
  EXPECT_NE(Err.find("nesting too deep"), std::string::npos) << Err;
  // Absurd depth must hit the same structured error, not the stack
  // guard page. Mixed braces exercise the object path too.
  expectParseError(nested(5000), "5000 nested arrays");
  std::string Obj;
  for (int I = 0; I < 2000; ++I)
    Obj += "{\"k\":";
  Obj += "[";
  expectParseError(Obj, "2000 nested objects");
}

TEST(JsonFuzzTest, OverlongNumbersDegradeInsteadOfCrashing) {
  // An integer too wide for long long silently degrades to double, like
  // every mainstream JSON parser.
  std::string Wide(40, '7');
  std::optional<Json> J = Json::parse(Wide);
  ASSERT_TRUE(J.has_value());
  EXPECT_TRUE(J->isNumber());
  EXPECT_FALSE(J->isInteger());
  EXPECT_TRUE(std::isfinite(J->asNumber()));

  // A 5000-digit literal and an overflowing exponent both parse to an
  // out-of-range double; the writer then renders non-finite values as
  // null (JSON has no Inf), and that rendering re-parses cleanly.
  for (const std::string &Huge : {std::string(5000, '9'), std::string("1e999"),
                                  std::string("-1e999999999")}) {
    std::optional<Json> H = Json::parse(Huge);
    ASSERT_TRUE(H.has_value()) << Huge.substr(0, 16);
    ASSERT_TRUE(H->isNumber());
    if (!std::isfinite(H->asNumber())) {
      EXPECT_EQ(H->dump(), "null");
      EXPECT_TRUE(Json::parse(H->dump()).has_value());
    }
  }

  // In-range values at the integer/double boundary keep their exactness.
  std::optional<Json> Max = Json::parse("9223372036854775807");
  ASSERT_TRUE(Max.has_value());
  EXPECT_TRUE(Max->isInteger());
  EXPECT_EQ(Max->asInteger(), 9223372036854775807LL);
  EXPECT_EQ(Max->dump(), "9223372036854775807");
}

TEST(JsonFuzzTest, RawNonUtf8BytesPassThroughStringsUnchanged) {
  // The parser does not validate UTF-8 in string bodies: the service
  // treats strings as byte sequences, so invalid sequences (stray
  // continuation bytes, overlong-looking lead bytes, 0xFF) must survive
  // a parse -> dump -> parse round trip byte-for-byte, never crash, and
  // never corrupt neighbouring members.
  const std::string Bad[] = {
      std::string("\xff\xfe", 2),         // not valid UTF-8 at all
      std::string("\x80\x80", 2),         // lone continuation bytes
      std::string("\xc3", 1),             // truncated 2-byte sequence
      std::string("\xe2\x82", 2),         // truncated 3-byte sequence
      std::string("ok\xf0\x9f\x92\xa9!"), // valid multi-byte, mixed ascii
  };
  for (const std::string &S : Bad) {
    std::string Doc = "{\"s\":\"" + S + "\",\"after\":1}";
    std::string Err;
    std::optional<Json> J = Json::parse(Doc, &Err);
    ASSERT_TRUE(J.has_value()) << Err;
    ASSERT_NE(J->find("s"), nullptr);
    EXPECT_EQ(J->find("s")->asString(), S);
    ASSERT_NE(J->find("after"), nullptr);
    EXPECT_EQ(J->find("after")->asInteger(), 1);
    std::optional<Json> Again = Json::parse(J->dump());
    ASSERT_TRUE(Again.has_value());
    EXPECT_TRUE(jsonEq(*J, *Again));
  }
}

/// Builds a pseudo-random Json value. Doubles come from eighths so the
/// %.17g writer reproduces them exactly; object keys are made distinct
/// because set() overwrites duplicates (last-wins), which would make a
/// duplicate-keyed tree unreproducible by construction.
Json randomValue(Lcg &Rng, int Depth) {
  uint64_t Pick = Rng.next(Depth >= 4 ? 4 : 6);
  switch (Pick) {
  case 0:
    return Json::null();
  case 1:
    return Json::boolean(Rng.next(2) != 0);
  case 2:
    return Json::integer(static_cast<long long>(Rng.next(2000001)) - 1000000);
  case 3: {
    if (Rng.next(2) == 0)
      return Json::number(static_cast<double>(Rng.next(16001)) / 8.0 - 1000.0);
    // Strings cover escapes, control bytes, and multi-byte UTF-8.
    static const char *const Pieces[] = {"a",  "\"", "\\", "\n", "\t",
                                         "\x01", "{",  "[",  ",", "\xe2\x82\xac"};
    std::string S;
    for (uint64_t I = 0, N = Rng.next(8); I < N; ++I)
      S += Pieces[Rng.next(sizeof(Pieces) / sizeof(Pieces[0]))];
    return Json::string(std::move(S));
  }
  case 4: {
    Json A = Json::array();
    for (uint64_t I = 0, N = Rng.next(4); I < N; ++I)
      A.push(randomValue(Rng, Depth + 1));
    return A;
  }
  default: {
    Json O = Json::object();
    for (uint64_t I = 0, N = Rng.next(4); I < N; ++I) {
      std::string Key = "k";
      Key += std::to_string(I);
      O.set(std::move(Key), randomValue(Rng, Depth + 1));
    }
    return O;
  }
  }
}

TEST(JsonFuzzTest, RandomValuesRoundTripThroughDumpAndParse) {
  Lcg Rng(0x1234abcd);
  for (int Trial = 0; Trial < 500; ++Trial) {
    Json V = randomValue(Rng, 0);
    std::string Wire = V.dump();
    // The wire format is line-delimited: a dumped document may never
    // contain a raw newline or other control byte.
    for (char C : Wire)
      ASSERT_GE(static_cast<unsigned char>(C), 0x20u)
          << "trial " << Trial << ": control byte on the wire: " << Wire;
    std::string Err;
    std::optional<Json> Back = Json::parse(Wire, &Err);
    ASSERT_TRUE(Back.has_value()) << "trial " << Trial << ": " << Err
                                  << "\nwire: " << Wire;
    EXPECT_TRUE(jsonEq(V, *Back)) << "trial " << Trial << ": " << Wire;
    // dump is a fixed point: parse(dump(v)) dumps to the same bytes.
    EXPECT_EQ(Back->dump(), Wire) << "trial " << Trial;
  }
}

TEST(JsonFuzzTest, RandomByteSoupNeverCrashesTheParser) {
  // Weighted toward JSON punctuation so the parser's interesting states
  // are actually reached, with raw bytes mixed in. Every outcome must
  // be a value or a structured offset-carrying error.
  static const char Alphabet[] = "{}[]\",:.-+eE0123456789truefalsn \\u\x01\xff";
  Lcg Rng(0xfeedbeef);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::string Doc;
    for (uint64_t I = 0, N = Rng.next(48); I < N; ++I)
      Doc += Alphabet[Rng.next(sizeof(Alphabet) - 1)];
    std::string Err;
    std::optional<Json> J = Json::parse(Doc, &Err);
    if (J.has_value()) {
      // Whatever parsed must survive its own wire rendering.
      std::optional<Json> Again = Json::parse(J->dump());
      ASSERT_TRUE(Again.has_value()) << "trial " << Trial << ": " << Doc;
    } else {
      EXPECT_FALSE(Err.empty()) << "trial " << Trial << ": " << Doc;
      EXPECT_NE(Err.find(" at offset "), std::string::npos)
          << "trial " << Trial << ": " << Err;
    }
  }
}

TEST(JsonFuzzTest, MutatedValidDocumentsNeverCrashTheParser) {
  // Single-byte mutations of a known-good request: the classic cheap
  // fuzz schedule. Deterministic — every (position, byte) pair from the
  // LCG replays identically.
  const std::string Doc =
      "{\"id\":7,\"op\":\"solve\",\"domain\":\"list\",\"timeout_ms\":2500,"
      "\"examples\":[[[1,2],[2,4]],[[3],[6]]],\"tag\":\"a\\u00e9b\"}";
  ASSERT_TRUE(Json::parse(Doc).has_value());
  Lcg Rng(0x5eed5eed);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::string Mut = Doc;
    uint64_t Pos = Rng.next(Mut.size());
    Mut[Pos] = static_cast<char>(Rng.next(256));
    std::string Err;
    std::optional<Json> J = Json::parse(Mut, &Err);
    if (!J.has_value()) {
      EXPECT_FALSE(Err.empty()) << "trial " << Trial << ": " << Mut;
      EXPECT_NE(Err.find(" at offset "), std::string::npos)
          << "trial " << Trial << ": " << Err;
    }
  }
}

} // namespace
