// Minimal JSON value model, parser and writer.
//
// The NVD publishes vulnerability feeds as JSON; `icsdiv::nvd` loads and
// saves its vulnerability database in a JSON dialect compatible with the
// fields we consume (CVE id, CPE list, CVSS score, published year).  The
// library is self-contained, so we ship a small, strict JSON implementation
// rather than depending on an external one.
//
// Supported: objects, arrays, strings (with \uXXXX escapes, surrogate
// pairs), numbers (doubles and exact 64-bit integers), booleans, null.
// Not supported (by design): comments, NaN/Infinity literals, duplicate-key
// detection (a repeated key keeps its first position and takes the last
// value, as with most parsers), and arrays and objects nested deeper than
// Json::kMaxDepth.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/error.hpp"
#include "support/name_index.hpp"

namespace icsdiv::support {

class Json;

/// A 128-bit digest of a JSON value (Json::digest, Json::digest_text).  Two
/// values get the same digest when they are equal with their object keys
/// in the same order, however the text spaced or escaped them; a text that
/// repeats a key may digest unlike its DOM, which keeps one of the two.
struct JsonDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const JsonDigest&, const JsonDigest&) = default;
};

/// A member of a document's top-level object whose value
/// Json::parse_digesting checked and digested instead of building it.
struct DigestedMember {
  std::string_view key;   ///< set by the caller: the member to digest
  std::string_view text;  ///< the value's bytes; empty when the member is absent
  JsonDigest digest;      ///< the value's digest, as Json::digest would give
};

/// Ordered object representation: preserves insertion order so that
/// serialised feeds diff cleanly.  Small objects look keys up by a linear
/// scan; past kIndexThreshold keys the object also keeps a NameIndex of
/// entry positions, so lookups and inserts stay O(1) on average for the
/// one-key-per-host objects of large assignments.  The index is built and
/// updated only by set(): const lookups never write, so cached values can
/// be read from many threads at once.
class JsonObject {
 public:
  using Entry = std::pair<std::string, Json>;

  /// Objects with more keys than this carry a key index.
  static constexpr std::size_t kIndexThreshold = 16;

  JsonObject() = default;
  JsonObject(const JsonObject& other);
  JsonObject& operator=(const JsonObject& other);
  JsonObject(JsonObject&&) noexcept = default;
  JsonObject& operator=(JsonObject&&) noexcept = default;
  ~JsonObject() = default;

  /// Inserts `key`, or overwrites its value in place when present (the
  /// key keeps its first position).
  void set(std::string key, Json value);
  /// Makes room for `count` keys, so that many set() calls allocate
  /// nothing more.
  void reserve(std::size_t count);
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Throws NotFound if the key is absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Returns nullptr if the key is absent.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// As above, for a caller that takes the value apart or moves it out.
  [[nodiscard]] Json* find(std::string_view key) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  /// key_of accessor for index_ (defined in json.cpp, where Json is complete).
  [[nodiscard]] auto entry_key() const noexcept;
  [[nodiscard]] std::uint32_t position_of(std::string_view key) const noexcept;

  std::vector<Entry> entries_;
  /// Positions into entries_; null until the object outgrows
  /// kIndexThreshold.  Behind one pointer so Json stays 40 bytes.
  std::unique_ptr<NameIndex> index_;
};

using JsonArray = std::vector<Json>;

/// A JSON value.  Integers that fit in int64 are kept exact; other numbers
/// are doubles.
class Json {
 public:
  enum class Type { Null, Boolean, Integer, Double, String, Array, Object };

  /// parse() refuses arrays and objects nested deeper than this.  Writing,
  /// copying, hashing and destroying a value each recurse once per level,
  /// so the limit is what keeps a hostile document from exhausting the
  /// stack; real documents nest a handful of levels.
  static constexpr std::size_t kMaxDepth = 512;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] Type type() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::Null; }
  [[nodiscard]] bool is_boolean() const noexcept { return type() == Type::Boolean; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::Integer || type() == Type::Double;
  }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::Object; }

  // Checked accessors; throw InvalidArgument on type mismatch.
  [[nodiscard]] bool as_boolean() const;
  [[nodiscard]] std::int64_t as_integer() const;
  [[nodiscard]] double as_double() const;  ///< accepts Integer too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Serialises compactly (no whitespace).
  [[nodiscard]] std::string dump() const;
  /// Serialises with two-space indentation.
  [[nodiscard]] std::string dump_pretty() const;

  /// Parses a complete JSON document; trailing garbage is an error, and so
  /// is nesting past kMaxDepth.  Throws ParseError with the line and column
  /// (in bytes, from 1) where reading stopped.
  static Json parse(std::string_view text);

  /// As parse(), with the same refusals, except that the value of each
  /// member of a top-level object named by an entry of `members` is only
  /// checked and digested: it reads as null in the result, and the entry
  /// gets its text (a view into `text`) and digest, those of the last such
  /// member when the key repeats.
  static Json parse_digesting(std::string_view text, std::span<DigestedMember> members);

  /// This value's digest, from one walk over it.
  [[nodiscard]] JsonDigest digest() const;

  /// The digest of the document in `text`, from one pass that builds
  /// nothing; refuses what parse() refuses, with the same ParseError.
  [[nodiscard]] static JsonDigest digest_text(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, JsonArray, JsonObject>
      value_;

  void write(std::string& out, int indent, int depth) const;
  static void write_string(std::string& out, std::string_view s);
};

/// A double as a JSON value.  JSON has no NaN or Infinity literal, so a
/// non-finite value becomes null (the report convention, DESIGN.md §9).
[[nodiscard]] Json json_number(double value);

}  // namespace icsdiv::support
