#include "support/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
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
    for (std::uint32_t i = 0; i <= position; ++i) index->insert(i, entry_key());
    index_ = std::move(index);
  }
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

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_whitespace();
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON: " + message, line_, pos_ - line_start_ + 1);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  void skip_whitespace() {
    while (!eof()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': parse_literal("true"); return Json(true);
      case 'f': parse_literal("false"); return Json(false);
      case 'n': parse_literal("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  void parse_literal(std::string_view literal) {
    for (char c : literal) {
      if (eof() || advance() != c) fail("invalid literal");
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject object;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.set(std::move(key), parse_value());
      skip_whitespace();
      char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parse_array() {
    expect('[');
    JsonArray array;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return Json(std::move(array));
    }
    while (true) {
      skip_whitespace();
      array.push_back(parse_value());
      skip_whitespace();
      char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = advance();
      if (c == '"') break;
      if (c == '\\') {
        char esc = advance();
        switch (esc) {
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
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = advance();
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
      if (advance() != '\\' || advance() != 'u') fail("unpaired surrogate");
      unsigned low = parse_hex4();
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

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') advance();
    if (eof()) fail("truncated number");
    if (peek() == '0') {
      advance();
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    } else {
      fail("invalid number");
    }
    bool is_integer = true;
    if (!eof() && text_[pos_] == '.') {
      is_integer = false;
      advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      advance();
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      std::int64_t value = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Json(value);
      // Fall through to double on overflow.
    }
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("unparseable number");
    return Json(value);
  }
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json json_number(double value) { return std::isfinite(value) ? Json(value) : Json(nullptr); }

}  // namespace icsdiv::support
