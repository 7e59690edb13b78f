// JSON value model, parser and writer.
#include "support/json.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace icsdiv::support
