// JSON value model, parser and writer.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace icsdiv::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_boolean());
  EXPECT_FALSE(Json::parse("false").as_boolean());
  EXPECT_EQ(Json::parse("42").as_integer(), 42);
  EXPECT_EQ(Json::parse("-17").as_integer(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(JsonParse, IntegerStaysExact) {
  const auto value = Json::parse("9007199254740993");  // 2^53 + 1
  EXPECT_EQ(value.type(), Json::Type::Integer);
  EXPECT_EQ(value.as_integer(), 9007199254740993LL);
}

TEST(JsonParse, IntegerAcceptedAsDouble) {
  EXPECT_DOUBLE_EQ(Json::parse("7").as_double(), 7.0);
}

TEST(JsonParse, NestedStructures) {
  const auto doc = Json::parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  const auto& root = doc.as_object();
  EXPECT_EQ(root.size(), 2u);
  const auto& a = root.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].as_integer(), 2);
  EXPECT_TRUE(a[2].as_object().at("b").is_null());
  EXPECT_TRUE(root.at("c").as_object().at("d").as_boolean());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairs) {
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse(" \n\t { \"k\" : 1 } \r\n").as_object().at("k").as_integer(), 1);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), ParseError);
  EXPECT_THROW(Json::parse("01"), ParseError);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), ParseError);  // unpaired surrogate
  EXPECT_THROW(Json::parse("{1: 2}"), ParseError);
}

TEST(JsonParse, ErrorCarriesLocation) {
  try {
    Json::parse("{\n  \"a\": nope\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(JsonDump, RoundTrip) {
  const char* documents[] = {
      R"({"a":[1,2,3],"b":{"c":"d"},"e":null,"f":true,"g":1.25})",
      R"([])",
      R"({})",
      R"(["\"quoted\"","line\nbreak"])",
  };
  for (const char* text : documents) {
    const auto parsed = Json::parse(text);
    EXPECT_EQ(parsed.dump(), text) << text;
    // Pretty output re-parses to the same compact form.
    EXPECT_EQ(Json::parse(parsed.dump_pretty()).dump(), text) << text;
  }
}

TEST(JsonDump, ControlCharactersEscaped) {
  const std::string raw{'a', '\x01', 'b'};
  const Json value(raw);
  EXPECT_EQ(value.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(value.dump()).as_string(), raw);
}

TEST(JsonObject, InsertionOrderPreserved) {
  JsonObject object;
  object.set("z", Json(1));
  object.set("a", Json(2));
  object.set("m", Json(3));
  const Json doc{std::move(object)};
  EXPECT_EQ(doc.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonObject, SetOverwrites) {
  JsonObject object;
  object.set("k", Json(1));
  object.set("k", Json(2));
  EXPECT_EQ(object.size(), 1u);
  EXPECT_EQ(object.at("k").as_integer(), 2);
}

TEST(JsonObject, MissingKeyThrows) {
  JsonObject object;
  EXPECT_THROW((void)object.at("nope"), NotFound);
  EXPECT_EQ(object.find("nope"), nullptr);
}

/// An object of `count` keys "k0", "k1", ... whose values are their indices.
JsonObject numbered_object(std::size_t count) {
  JsonObject object;
  for (std::size_t i = 0; i < count; ++i) {
    object.set(std::string("k").append(std::to_string(i)), Json(i));
  }
  return object;
}

/// Every key of a numbered_object(count) resolves to its own value, and
/// keys past the end are absent.
void expect_numbered_lookups(const JsonObject& object, std::size_t count) {
  ASSERT_EQ(object.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    ASSERT_TRUE(object.contains(key)) << key;
    EXPECT_EQ(object.at(key).as_integer(), static_cast<std::int64_t>(i)) << key;
  }
  EXPECT_EQ(object.find("k" + std::to_string(count)), nullptr);
  EXPECT_FALSE(object.contains(""));
}

TEST(JsonObject, RepeatedKeyKeepsItsFirstPositionAndTheLastValue) {
  // Both sides of the index threshold, through set() and through parse().
  for (const std::size_t count : {std::size_t{3}, JsonObject::kIndexThreshold + 1,
                                  std::size_t{200}}) {
    JsonObject object = numbered_object(count);
    object.set("k1", Json("last"));
    object.set("k" + std::to_string(count - 1), Json("tail"));
    ASSERT_EQ(object.size(), count);
    auto it = object.begin();
    EXPECT_EQ(it->first, "k0");
    ++it;
    EXPECT_EQ(it->first, "k1");
    EXPECT_EQ(it->second.as_string(), "last");
    EXPECT_EQ(object.at("k" + std::to_string(count - 1)).as_string(), "tail");

    std::string text = "{";
    for (std::size_t i = 0; i < count; ++i) {
      text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    }
    text += "\"k0\":\"again\"}";
    const Json parsed = Json::parse(text);
    const JsonObject& parsed_object = parsed.as_object();
    ASSERT_EQ(parsed_object.size(), count) << count;
    EXPECT_EQ(parsed_object.begin()->first, "k0");
    EXPECT_EQ(parsed_object.at("k0").as_string(), "again");
    EXPECT_EQ(parsed_object.at("k1").as_integer(), 1);
  }
}

TEST(JsonObject, IndexedLookupsSurviveCopiesAndMoves) {
  constexpr std::size_t kCount = 100;  // well past the index threshold
  const JsonObject original = numbered_object(kCount);
  expect_numbered_lookups(original, kCount);

  JsonObject copied(original);
  expect_numbered_lookups(copied, kCount);
  copied.set("extra", Json(true));  // the copy's index is its own
  EXPECT_TRUE(copied.contains("extra"));
  EXPECT_FALSE(original.contains("extra"));

  JsonObject assigned = numbered_object(3);
  assigned = original;
  expect_numbered_lookups(assigned, kCount);

  JsonObject moved(std::move(assigned));
  expect_numbered_lookups(moved, kCount);
  JsonObject move_assigned;
  move_assigned = std::move(moved);
  expect_numbered_lookups(move_assigned, kCount);

  JsonObject& alias = move_assigned;
  move_assigned = alias;  // self-assignment keeps both entries and index
  expect_numbered_lookups(move_assigned, kCount);

  // Values nested in arrays keep their indexes when the array reallocates.
  JsonArray array;
  for (int i = 0; i < 10; ++i) array.emplace_back(numbered_object(kCount));
  for (const Json& element : array) expect_numbered_lookups(element.as_object(), kCount);
}

TEST(JsonDump, LargeObjectsDumpInInsertionOrder) {
  constexpr std::size_t kCount = 1000;
  JsonObject object;
  std::string expected = "{";
  for (std::size_t i = 0; i < kCount; ++i) {
    // Descending keys, so sorted or hash order would differ.
    const std::string key = "host-" + std::to_string(kCount - i);
    object.set(key, Json(i));
    if (i > 0) expected += ',';
    expected += "\"" + key + "\":" + std::to_string(i);
  }
  expected += '}';
  const Json doc{std::move(object)};
  EXPECT_EQ(doc.dump(), expected);
  EXPECT_EQ(Json::parse(expected).dump(), expected);
}

#if defined(__x86_64__) && defined(__GLIBCXX__)
TEST(JsonObject, KeyIndexKeepsJsonAtFortyBytes) {
  // The index lives behind one pointer; every array element stays small.
  EXPECT_EQ(sizeof(Json), 40u);
}
#endif

TEST(JsonAccessors, TypeMismatchThrows) {
  const Json value(42);
  EXPECT_THROW((void)value.as_string(), InvalidArgument);
  EXPECT_THROW((void)value.as_array(), InvalidArgument);
  EXPECT_THROW((void)value.as_object(), InvalidArgument);
  EXPECT_THROW((void)Json("x").as_integer(), InvalidArgument);
}

TEST(JsonDump, NonFiniteRejected) {
  const Json value(std::numeric_limits<double>::infinity());
  EXPECT_THROW(value.dump(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Reader pins: every way the parser can refuse a document, with the exact
// message, line and column it reports.  The column counts bytes from 1;
// only '\n' starts a new line.

struct Malformed {
  std::string_view text;
  std::string_view message;  ///< without the "JSON: " prefix and the location
  std::size_t line;
  std::size_t column;
};

constexpr Malformed kMalformed[] = {
    // unexpected end of input: wherever the text runs out
    {"", "unexpected end of input", 1, 1},
    {"  \n ", "unexpected end of input", 2, 2},
    {"{", "unexpected end of input", 1, 2},
    {"[", "unexpected end of input", 1, 2},
    {"[1", "unexpected end of input", 1, 3},
    {"[1,2", "unexpected end of input", 1, 5},
    {"{\"a\"", "unexpected end of input", 1, 5},
    {"{\"a\":", "unexpected end of input", 1, 6},
    {"{\"a\":1", "unexpected end of input", 1, 7},
    {"\"abc", "unexpected end of input", 1, 5},
    {"\"a\\", "unexpected end of input", 1, 4},
    {"\"\\u00", "unexpected end of input", 1, 6},
    {"\"\\ud83d", "unexpected end of input", 1, 8},
    {"\"\\ud83d\\", "unexpected end of input", 1, 9},
    // trailing characters after JSON document
    {"1 2", "trailing characters after JSON document", 1, 3},
    {"01", "trailing characters after JSON document", 1, 2},
    {"-01", "trailing characters after JSON document", 1, 3},
    {"[1]]", "trailing characters after JSON document", 1, 4},
    {"{\"a\":1}\n\nx", "trailing characters after JSON document", 3, 1},
    // expected ':'
    {"{\"a\" 1}", "expected ':'", 1, 7},
    {"{\"a\"\n1}", "expected ':'", 2, 2},
    // invalid literal
    {"nul", "invalid literal", 1, 4},
    {"nux", "invalid literal", 1, 4},
    {"tru", "invalid literal", 1, 4},
    {"fals", "invalid literal", 1, 5},
    {"[true,\nfalsy]", "invalid literal", 2, 6},
    {"{\n  \"a\": nope\n}", "invalid literal", 2, 10},
    // expected object key string
    {"{1: 2}", "expected object key string", 1, 2},
    {"{\"a\":1,}", "expected object key string", 1, 8},
    {"{\"a\":1,\n  x}", "expected object key string", 2, 3},
    // expected ',' or '}' in object
    {"{\"a\":1 2}", "expected ',' or '}' in object", 1, 9},
    {"{\"a\":1]", "expected ',' or '}' in object", 1, 8},
    // expected ',' or ']' in array
    {"[1 2]", "expected ',' or ']' in array", 1, 5},
    {"[01]", "expected ',' or ']' in array", 1, 4},
    {"[1,\r\n2 3]", "expected ',' or ']' in array", 2, 4},
    {"[1}", "expected ',' or ']' in array", 1, 4},
    // invalid escape sequence
    {"\"a\\x\"", "invalid escape sequence", 1, 5},
    {"\"\\U0041\"", "invalid escape sequence", 1, 4},
    // unescaped control character in string
    {"\"a\x01\"", "unescaped control character in string", 1, 4},
    {"\"\x1f\"", "unescaped control character in string", 1, 3},
    {"\"a\tb\"", "unescaped control character in string", 1, 4},
    {"[\"a\nb\"]", "unescaped control character in string", 2, 1},
    // invalid \u escape
    {"\"\\u12g4\"", "invalid \\u escape", 1, 7},
    {"\"\\u\"", "invalid \\u escape", 1, 5},
    {"\"\\ud83d\\uZZZZ\"", "invalid \\u escape", 1, 11},
    // unpaired surrogate
    {"\"\\ud83d\"", "unpaired surrogate", 1, 9},
    {"\"\\ud83dx\"", "unpaired surrogate", 1, 9},
    {"\"\\ud83d\\n\"", "unpaired surrogate", 1, 10},
    // invalid low surrogate
    {"\"\\ud83d\\u0041\"", "invalid low surrogate", 1, 14},
    {"\"\\ud83d\\ud83d\"", "invalid low surrogate", 1, 14},
    // unpaired low surrogate
    {"\"\\udc00\"", "unpaired low surrogate", 1, 8},
    {"[\n\"\\uDFFF\"]", "unpaired low surrogate", 2, 8},
    // truncated number
    {"-", "truncated number", 1, 2},
    {"[\n-", "truncated number", 2, 2},
    // invalid number
    {"-a", "invalid number", 1, 2},
    {"+1", "invalid number", 1, 1},
    {"[1,]", "invalid number", 1, 4},
    {"{\"a\":}", "invalid number", 1, 6},
    {"[\n1,\n\n  ]", "invalid number", 4, 3},
    {".5", "invalid number", 1, 1},
    {"- 1", "invalid number", 1, 2},
    // invalid fraction
    {"1.", "invalid fraction", 1, 3},
    {"1.e5", "invalid fraction", 1, 3},
    {"[-0.]", "invalid fraction", 1, 5},
    // invalid exponent
    {"1e", "invalid exponent", 1, 3},
    {"1e+", "invalid exponent", 1, 4},
    {"[2E-x]", "invalid exponent", 1, 5},
    // unparseable number
    {"1e999", "unparseable number", 1, 6},
    {"[\n-2.5e400]", "unparseable number", 2, 9},
};

TEST(JsonParse, EveryRefusalHasItsMessageLineAndColumn) {
  for (const Malformed& c : kMalformed) {
    SCOPED_TRACE(std::string("text: ").append(c.text));
    try {
      (void)Json::parse(c.text);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), std::string("JSON: ")
                              .append(c.message)
                              .append(" (line ")
                              .append(std::to_string(c.line))
                              .append(", column ")
                              .append(std::to_string(c.column))
                              .append(")"));
      EXPECT_EQ(e.line(), c.line);
      EXPECT_EQ(e.column(), c.column);
    }
  }
}

TEST(JsonParse, NestingStopsAtMaxDepth) {
  constexpr std::size_t kLimit = Json::kMaxDepth;
  static_assert(kLimit == 512);
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open).append("0").append(depth, close);
  };
  // The limit itself reads back, in arrays and in objects.
  EXPECT_EQ(Json::parse(nested(kLimit, '[', ']')).dump(), nested(kLimit, '[', ']'));
  std::string objects;
  for (std::size_t i = 0; i < kLimit; ++i) objects += "{\"k\":";
  objects.append("0").append(kLimit, '}');
  EXPECT_EQ(Json::parse(objects).dump(), objects);
  std::string too_deep = objects;
  too_deep.replace(too_deep.find('0'), 1, "[]");
  EXPECT_THROW((void)Json::parse(too_deep), ParseError);

  // One level more is refused at the bracket that opens it, empty or not,
  // after a newline too, and however deep the text goes on.
  const std::string message = "JSON: nesting deeper than 512 levels (line 1, column 513)";
  for (const std::string& text :
       {nested(kLimit + 1, '[', ']'), std::string(kLimit, '[').append("[]"),
        std::string(kLimit, '[').append("{}"), std::string(100000, '[')}) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << "accepted " << text.size() << " bytes";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), message);
      EXPECT_EQ(e.line(), 1u);
      EXPECT_EQ(e.column(), kLimit + 1);
    }
  }
  try {
    (void)Json::parse(std::string("{\"a\":\n").append(kLimit, '['));
    ADD_FAILURE() << "accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.what(), std::string("JSON: nesting deeper than 512 levels (line 2, column 512)"));
  }
}

// ---------------------------------------------------------------------------
// Writer pins: seeded documents that cover every escape, every control
// character, multi-byte UTF-8, int64 edges, doubles, deep nesting and
// objects on both sides of JsonObject::kIndexThreshold.

class DocumentMaker {
 public:
  explicit DocumentMaker(std::uint64_t seed) : rng_(seed) {}

  Json value(int depth) {
    const std::size_t kind = rng_.index(depth >= 4 ? 5 : 7);
    switch (kind) {
      case 0: return rng_.index(3) == 0 ? Json(nullptr) : Json(rng_.index(2) == 0);
      case 1: return Json(integer());
      case 2: return Json(floating());
      case 3:
      case 4: return Json(string());
      case 5: {
        JsonArray array;
        const std::size_t size = rng_.index(6);
        for (std::size_t i = 0; i < size; ++i) array.push_back(value(depth + 1));
        return Json(std::move(array));
      }
      default: {
        JsonObject object;
        // Some objects pass the key-index threshold; small key pools make
        // set() overwrite existing keys.
        const std::size_t size =
            rng_.index(4) == 0 ? JsonObject::kIndexThreshold + rng_.index(24) : rng_.index(6);
        const std::size_t pool = rng_.index(2) == 0 ? size + 1 : std::max<std::size_t>(size / 2, 1);
        for (std::size_t i = 0; i < size; ++i) {
          object.set(std::string("k").append(std::to_string(rng_.index(pool))), value(depth + 1));
        }
        return Json(std::move(object));
      }
    }
  }

 private:
  std::int64_t integer() {
    constexpr std::int64_t kEdges[] = {std::numeric_limits<std::int64_t>::min(),
                                       std::numeric_limits<std::int64_t>::min() + 1,
                                       std::numeric_limits<std::int64_t>::max(),
                                       std::numeric_limits<std::int64_t>::max() - 1,
                                       0,
                                       -1,
                                       9007199254740993,
                                       -9007199254740993};
    if (rng_.index(3) == 0) return kEdges[rng_.index(std::size(kEdges))];
    return static_cast<std::int64_t>(rng_()) >> rng_.index(64);
  }

  double floating() {
    // -0.0 is left out: it is written as "-0", which reads back as the
    // integer 0 (NumberEdges pins that).
    constexpr double kEdges[] = {0.1,     0.5,   1e300, -1e-300, 5e-324, 2.2250738585072014e-308,
                                 1.7976931348623157e308, 123456789.125, 1e21, 1e-7};
    if (rng_.index(3) == 0) return kEdges[rng_.index(std::size(kEdges))];
    // Random finite bit patterns: subnormals, huge and tiny exponents.
    while (true) {
      const double d = std::bit_cast<double>(rng_());
      if (std::isfinite(d) && !(d == 0.0 && std::signbit(d))) return d;
    }
  }

  std::string string() {
    static constexpr std::string_view kPieces[] = {
        "\"", "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x7f",
        "\xc3\xa9",          // U+00E9
        "\xe2\x82\xac",     // U+20AC
        "\xf0\x9f\x98\x80",  // U+1F600, a surrogate pair when escaped
        "host-", "plc", " ", "\u00a0"};
    std::string out;
    const std::size_t pieces = rng_.index(8);
    for (std::size_t i = 0; i < pieces; ++i) {
      switch (rng_.index(3)) {
        case 0: out.push_back(static_cast<char>(rng_.index(0x20))); break;  // a control character
        case 1: out.push_back(static_cast<char>(0x20 + rng_.index(0x5f))); break;  // printable ASCII
        default: out.append(kPieces[rng_.index(std::size(kPieces))]);
      }
    }
    return out;
  }

  Rng rng_;
};

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(JsonRoundTrip, SeededDocumentsDumpParseDumpIdentically) {
  DocumentMaker maker(20261020);
  std::uint64_t compact_hash = 1469598103934665603ull;
  std::uint64_t pretty_hash = 1469598103934665603ull;
  for (int i = 0; i < 400; ++i) {
    const Json document = maker.value(0);
    const std::string compact = document.dump();
    const std::string pretty = document.dump_pretty();
    ASSERT_EQ(Json::parse(compact).dump(), compact) << i;
    ASSERT_EQ(Json::parse(pretty).dump(), compact) << i;
    ASSERT_EQ(Json::parse(compact).dump_pretty(), pretty) << i;
    compact_hash = fnv1a(compact, compact_hash);
    pretty_hash = fnv1a(pretty, pretty_hash);
  }
  // The writer's exact bytes for these documents.
  EXPECT_EQ(compact_hash, 945258863038650215ull);
  EXPECT_EQ(pretty_hash, 3058507988072085657ull);
}

TEST(JsonRoundTrip, EveryControlCharacterAndEscapeForm) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\/\x7f";
  const std::string dumped = Json(raw).dump();
  EXPECT_EQ(dumped,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n\\u000b"
            "\\f\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016"
            "\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\/\x7f\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), raw);
  // Every escape the reader accepts, in both hex cases, and a surrogate
  // pair, decodes to raw bytes the writer passes through or re-escapes.
  const Json parsed = Json::parse(
      R"("\"\\\/\b\f\n\r\t\u0041\u00e9\u00E9\u20ac\uD83D\uDE00\ud83d\ude00\u001F")");
  EXPECT_EQ(parsed.as_string(),
            "\"\\/\b\f\n\r\tA\xc3\xa9\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xf0\x9f\x98\x80\x1f");
  EXPECT_EQ(parsed.dump(),
            "\"\\\"\\\\/\\b\\f\\n\\r\\tA\xc3\xa9\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xf0\x9f\x98"
            "\x80\\u001f\"");
}

TEST(JsonRoundTrip, NumberEdges) {
  const char* const texts[] = {"-9223372036854775808", "9223372036854775807", "0", "-0",
                               "9223372036854775808", "-9223372036854775809", "1.5",
                               "-0.0", "5e-324", "1.7976931348623157e308", "1E2", "2.5e-3",
                               "100000000000000000000000"};
  const char* const dumped[] = {"-9223372036854775808", "9223372036854775807", "0", "0",
                                "9223372036854775808", "-9223372036854775808", "1.5",
                                "-0", "5e-324", "1.7976931348623157e+308", "100", "0.0025",
                                "1e+23"};
  for (std::size_t i = 0; i < std::size(texts); ++i) {
    const Json value = Json::parse(texts[i]);
    EXPECT_EQ(value.dump(), dumped[i]) << texts[i];
    if (std::string_view(texts[i]) == "-0.0") continue;
    EXPECT_EQ(Json::parse(value.dump()).dump(), dumped[i]) << texts[i];
  }
  // The one value that does not survive a round trip: -0.0 is written as
  // "-0", and "-0" reads as the integer 0.
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json::parse("-0").type(), Json::Type::Integer);
  EXPECT_EQ(Json::parse(Json(-0.0).dump()).dump(), "0");
  EXPECT_EQ(Json::parse("-9223372036854775808").type(), Json::Type::Integer);
  EXPECT_EQ(Json::parse("9223372036854775808").type(), Json::Type::Double);
}

TEST(JsonRoundTrip, RepeatedKeysParseAsSetWouldBuildThem) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = rng.index(3 * JsonObject::kIndexThreshold);
    const std::size_t pool = 1 + rng.index(size + 1);
    JsonObject expected;
    std::string text = "{";
    for (std::size_t i = 0; i < size; ++i) {
      const std::string key = std::string("key").append(std::to_string(rng.index(pool)));
      const auto value = static_cast<std::int64_t>(i);
      expected.set(key, Json(value));
      if (i > 0) text += i % 3 == 0 ? " ,\n" : ",";
      text.append("\"").append(key).append("\":").append(std::to_string(value));
    }
    text += "}";
    const Json parsed = Json::parse(text);
    ASSERT_EQ(parsed.dump(), Json(expected).dump()) << text;
    for (const auto& [key, value] : expected) {
      ASSERT_EQ(parsed.as_object().at(key).as_integer(), value.as_integer()) << key;
    }
  }
}

}  // namespace
}  // namespace icsdiv::support
