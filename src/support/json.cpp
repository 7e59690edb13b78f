#include "support/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <type_traits>

namespace icsdiv::support {

// Arrays of values reallocate by moving; a throwing move would make every
// vector<Json> growth deep-copy its elements instead.
static_assert(std::is_nothrow_move_constructible_v<Json>);

// ---------------------------------------------------------------------------
// JsonObject

JsonObject::JsonObject(const JsonObject& other)
    : entries_(other.entries_),
      index_(other.index_ ? std::make_unique<NameIndex>(*other.index_) : nullptr) {}

JsonObject& JsonObject::operator=(const JsonObject& other) {
  if (this != &other) *this = JsonObject(other);
  return *this;
}

auto JsonObject::entry_key() const noexcept {
  return [this](std::uint32_t i) -> const std::string& { return entries_[i].first; };
}

std::uint32_t JsonObject::position_of(std::string_view key) const noexcept {
  if (index_) return index_->find(key, entry_key());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) return static_cast<std::uint32_t>(i);
  }
  return NameIndex::kAbsent;
}

void JsonObject::set(std::string key, Json value) {
  if (const std::uint32_t found = position_of(key); found != NameIndex::kAbsent) {
    entries_[found].second = std::move(value);
    return;
  }
  // Reserve first, so a throwing allocation leaves entries and index in step.
  if (index_) index_->reserve(entries_.size() + 1, entry_key());
  entries_.emplace_back(std::move(key), std::move(value));
  const auto position = static_cast<std::uint32_t>(entries_.size() - 1);
  if (index_) {
    index_->insert(position, entry_key());
  } else if (entries_.size() > kIndexThreshold) {
    auto index = std::make_unique<NameIndex>();
    // Sized for the room reserve() made, so a parsed object's index is
    // built once.
    index->reserve(entries_.capacity(), entry_key());
    for (std::uint32_t i = 0; i <= position; ++i) index->insert(i, entry_key());
    index_ = std::move(index);
  }
}

void JsonObject::reserve(std::size_t count) {
  entries_.reserve(count);
  if (index_) index_->reserve(count, entry_key());
}

bool JsonObject::contains(std::string_view key) const noexcept { return find(key) != nullptr; }

const Json& JsonObject::at(std::string_view key) const {
  if (const Json* found = find(key)) return *found;
  throw NotFound("JsonObject::at: missing key '" + std::string(key) + "'");
}

const Json* JsonObject::find(std::string_view key) const noexcept {
  const std::uint32_t found = position_of(key);
  return found == NameIndex::kAbsent ? nullptr : &entries_[found].second;
}

Json* JsonObject::find(std::string_view key) noexcept {
  const std::uint32_t found = position_of(key);
  return found == NameIndex::kAbsent ? nullptr : &entries_[found].second;
}

// ---------------------------------------------------------------------------
// Json accessors

Json::Type Json::type() const noexcept {
  switch (value_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Boolean;
    case 2: return Type::Integer;
    case 3: return Type::Double;
    case 4: return Type::String;
    case 5: return Type::Array;
    default: return Type::Object;
  }
}

namespace {
[[noreturn]] void type_mismatch(const char* wanted) {
  throw InvalidArgument(std::string("Json: value is not ") + wanted);
}
}  // namespace

bool Json::as_boolean() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_mismatch("a boolean");
}

std::int64_t Json::as_integer() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    if (std::nearbyint(*d) == *d) return static_cast<std::int64_t>(*d);
  }
  type_mismatch("an integer");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return static_cast<double>(*i);
  type_mismatch("a number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_mismatch("a string");
}

const JsonArray& Json::as_array() const {
  if (const auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_mismatch("an array");
}

const JsonObject& Json::as_object() const {
  if (const auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_mismatch("an object");
}

JsonArray& Json::as_array() {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_mismatch("an array");
}

JsonObject& Json::as_object() {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_mismatch("an object");
}

// ---------------------------------------------------------------------------
// Writer

void Json::write_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Boolean: out += (std::get<bool>(value_) ? "true" : "false"); break;
    case Type::Integer: out += std::to_string(std::get<std::int64_t>(value_)); break;
    case Type::Double: {
      const double d = std::get<double>(value_);
      if (!std::isfinite(d)) throw InvalidArgument("Json::dump: non-finite number");
      std::array<char, 32> buf{};
      auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
      ensure(ec == std::errc(), "Json::write", "to_chars failed");
      out.append(buf.data(), ptr);
      break;
    }
    case Type::String: write_string(out, std::get<std::string>(value_)); break;
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        write_string(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Parser
//
// One loop over the text, with no recursion: the values of every open array
// and object wait on a scratch stack, the keys of open objects on another,
// and a container is built once its closing bracket arrives, at its final
// size.  Only the read position is tracked; fail() works out the line and
// column from it.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Json parse_document() {
    skip_whitespace();
    Json value = parse_value();
    skip_whitespace();
    if (p_ != end_) fail("trailing characters after JSON document");
    return value;
  }

 private:
  /// An array or object whose closing bracket has not arrived yet.
  struct Open {
    bool object;
    std::size_t first_value;  ///< its first element's place in values_
    std::size_t first_key;    ///< an object's first key's place in keys_
  };

  const char* begin_;
  const char* p_;
  const char* end_;
  std::vector<Json> values_;
  std::vector<std::string> keys_;
  std::vector<Open> open_;

  [[noreturn]] void fail(std::string_view message) const {
    std::size_t line = 1;
    const char* line_start = begin_;
    for (const char* c = begin_; c != p_; ++c) {
      if (*c == '\n') {
        ++line;
        line_start = c + 1;
      }
    }
    throw ParseError(std::string("JSON: ").append(message), line,
                     static_cast<std::size_t>(p_ - line_start) + 1);
  }

  [[nodiscard]] char peek() const {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  char next() {
    const char c = peek();
    ++p_;
    return c;
  }

  [[nodiscard]] static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  void skip_whitespace() noexcept {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }

  Json parse_value() {
    while (true) {
      const char c = peek();
      if (c == '[' || c == '{') {
        if (open_.size() == Json::kMaxDepth) {
          fail(std::string("nesting deeper than ")
                   .append(std::to_string(Json::kMaxDepth))
                   .append(" levels"));
        }
        const bool object = c == '{';
        ++p_;
        skip_whitespace();
        if (peek() != (object ? '}' : ']')) {
          open_.push_back(Open{object, values_.size(), keys_.size()});
          if (object) parse_key();
          continue;  // to the first element
        }
        ++p_;
        if (object) {
          values_.emplace_back(JsonObject());
        } else {
          values_.emplace_back(JsonArray());
        }
      } else {
        push_scalar(c);
      }
      // The value on top of values_ is complete.  It is the document, or
      // an element of the innermost open container, whose closing bracket
      // may complete the next one out.
      while (true) {
        if (open_.empty()) {
          Json document = std::move(values_.back());
          values_.pop_back();
          return document;
        }
        const Open& top = open_.back();
        skip_whitespace();
        const char after = next();
        if (after == ',') {
          skip_whitespace();
          if (top.object) parse_key();
          break;  // to the next element
        }
        if (top.object) {
          if (after != '}') fail("expected ',' or '}' in object");
          close_object(top);
        } else {
          if (after != ']') fail("expected ',' or ']' in array");
          close_array(top);
        }
        open_.pop_back();
      }
    }
  }

  /// Scalars are built in place on the stack: a move into it would cost a
  /// variant dispatch per value.
  void push_scalar(char c) {
    switch (c) {
      case '"': values_.emplace_back(parse_string()); break;
      case 't':
        parse_literal("true");
        values_.emplace_back(true);
        break;
      case 'f':
        parse_literal("false");
        values_.emplace_back(false);
        break;
      case 'n':
        parse_literal("null");
        values_.emplace_back(nullptr);
        break;
      default: values_.push_back(parse_number());
    }
  }

  /// An object's key and its colon, leaving the position at the value.
  void parse_key() {
    if (peek() != '"') fail("expected object key string");
    keys_.push_back(parse_string());
    skip_whitespace();
    if (next() != ':') fail("expected ':'");
    skip_whitespace();
  }

  void close_array(const Open& open) {
    const auto first = values_.begin() + static_cast<std::ptrdiff_t>(open.first_value);
    JsonArray array(std::make_move_iterator(first), std::make_move_iterator(values_.end()));
    values_.resize(open.first_value);
    values_.emplace_back(std::move(array));
  }

  void close_object(const Open& open) {
    JsonObject object;
    object.reserve(keys_.size() - open.first_key);
    for (std::size_t i = 0; open.first_key + i < keys_.size(); ++i) {
      object.set(std::move(keys_[open.first_key + i]), std::move(values_[open.first_value + i]));
    }
    keys_.resize(open.first_key);
    values_.resize(open.first_value);
    values_.emplace_back(std::move(object));
  }

  void parse_literal(std::string_view literal) {
    for (const char c : literal) {
      if (p_ == end_ || *p_++ != c) fail("invalid literal");
    }
  }

  [[nodiscard]] static bool plain(char c) noexcept {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

  std::string parse_string() {
    ++p_;  // the opening quote
    const char* run = p_;
    while (p_ != end_ && plain(*p_)) ++p_;
    std::string out(run, p_);
    while (true) {
      // The scans stop only at a quote, a backslash, a control character
      // or the end of the text.
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      switch (next()) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
      run = p_;
      while (p_ != end_ && plain(*p_)) ++p_;
      out.append(run, p_);
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: a low one must follow
      if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    append_utf8(out, code);
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  void skip_digits() noexcept {
    while (p_ != end_ && is_digit(*p_)) ++p_;
  }

  Json parse_number() {
    const char* const start = p_;
    if (*p_ == '-') ++p_;
    if (p_ == end_) fail("truncated number");
    if (*p_ == '0') {
      ++p_;
    } else if (is_digit(*p_)) {
      skip_digits();
    } else {
      fail("invalid number");
    }
    bool is_integer = true;
    if (p_ != end_ && *p_ == '.') {
      is_integer = false;
      ++p_;
      if (p_ == end_ || !is_digit(*p_)) fail("invalid fraction");
      skip_digits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      is_integer = false;
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !is_digit(*p_)) fail("invalid exponent");
      skip_digits();
    }
    if (is_integer) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(start, p_, value);
      if (ec == std::errc() && ptr == p_) return Json(value);
      // Fall through to double on overflow.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(start, p_, value);
    if (ec != std::errc() || ptr != p_) fail("unparseable number");
    return Json(value);
  }
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json json_number(double value) { return std::isfinite(value) ? Json(value) : Json(nullptr); }

}  // namespace icsdiv::support
