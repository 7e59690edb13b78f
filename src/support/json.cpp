#include "support/json.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
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
      if (d == 0.0 && std::signbit(d)) {
        out += "-0.0";  // "-0" would read back as the integer 0
        break;
      }
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
// Reader
//
// One loop over the text, with no recursion, that checks the grammar and
// reports each value to a sink in text order: scalars as they are read,
// containers as an open event, their elements (an object's each after its
// key), and a close event.  The reader keeps only whether each open
// container is an object; what the values become is the sink's business.
// Only the read position is tracked; fail() works out the line and column
// from it.  The sinks below build a DOM (Json::parse), digest the values
// (Json::digest_text), or build the top-level object while digesting the
// values of some of its members (Json::parse_digesting).
//
// A sink has null(), boolean(b), integer(i), real(d), string(s), open(object)
// and close(object); key(k, value), where `value` is the first byte of the
// member's value; and done(end) after every complete value, `end` being one
// past its last byte.  Strings reach a sink unescaped, as views that last
// until the next event.

namespace {

template <typename Sink>
class Reader {
 public:
  Reader(std::string_view text, Sink& sink)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()), sink_(sink) {}

  void read_document() {
    skip_whitespace();
    read_values();
    skip_whitespace();
    if (p_ != end_) fail("trailing characters after JSON document");
  }

 private:
  const char* begin_;
  const char* p_;
  const char* end_;
  Sink& sink_;
  /// One entry per open container: whether it is an object.
  std::vector<bool> open_;
  /// The unescaped bytes of the last string that held an escape.
  std::string scratch_;

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

  /// Reads one value, the document, with everything nested in it.
  void read_values() {
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
        sink_.open(object);
        skip_whitespace();
        if (peek() != (object ? '}' : ']')) {
          open_.push_back(object);
          if (object) read_key();
          continue;  // to the first element
        }
        ++p_;
        sink_.close(object);
      } else {
        read_scalar(c);
      }
      // A value is complete.  It is the document, or an element of the
      // innermost open container, whose closing bracket may complete the
      // next one out.
      while (true) {
        sink_.done(p_);
        if (open_.empty()) return;
        const bool object = open_.back();
        skip_whitespace();
        const char after = next();
        if (after == ',') {
          skip_whitespace();
          if (object) read_key();
          break;  // to the next element
        }
        if (object) {
          if (after != '}') fail("expected ',' or '}' in object");
        } else {
          if (after != ']') fail("expected ',' or ']' in array");
        }
        open_.pop_back();
        sink_.close(object);
      }
    }
  }

  void read_scalar(char c) {
    switch (c) {
      case '"': sink_.string(read_string()); break;
      case 't':
        read_literal("true");
        sink_.boolean(true);
        break;
      case 'f':
        read_literal("false");
        sink_.boolean(false);
        break;
      case 'n':
        read_literal("null");
        sink_.null();
        break;
      default: read_number();
    }
  }

  /// An object's key and its colon, leaving the position at the value.
  void read_key() {
    if (peek() != '"') fail("expected object key string");
    const std::string_view key = read_string();
    skip_whitespace();
    if (next() != ':') fail("expected ':'");
    skip_whitespace();
    sink_.key(key, p_);
  }

  void read_literal(std::string_view literal) {
    for (const char c : literal) {
      if (p_ == end_ || *p_++ != c) fail("invalid literal");
    }
  }

  [[nodiscard]] static bool plain(char c) noexcept {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

  /// The string's bytes: a view of the text when it holds no escape, of
  /// scratch_ otherwise.
  std::string_view read_string() {
    ++p_;  // the opening quote
    const char* run = p_;
    while (p_ != end_ && plain(*p_)) ++p_;
    if (p_ != end_ && *p_ == '"') {
      ++p_;
      return {run, static_cast<std::size_t>(p_ - 1 - run)};
    }
    scratch_.assign(run, p_);
    while (true) {
      // The scans stop only at a quote, a backslash, a control character
      // or the end of the text.
      const char c = next();
      if (c == '"') return scratch_;
      if (c != '\\') fail("unescaped control character in string");
      switch (next()) {
        case '"': scratch_.push_back('"'); break;
        case '\\': scratch_.push_back('\\'); break;
        case '/': scratch_.push_back('/'); break;
        case 'b': scratch_.push_back('\b'); break;
        case 'f': scratch_.push_back('\f'); break;
        case 'n': scratch_.push_back('\n'); break;
        case 'r': scratch_.push_back('\r'); break;
        case 't': scratch_.push_back('\t'); break;
        case 'u': append_unicode_escape(scratch_); break;
        default: fail("invalid escape sequence");
      }
      run = p_;
      while (p_ != end_ && plain(*p_)) ++p_;
      scratch_.append(run, p_);
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

  void read_number() {
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
      if (ec == std::errc() && ptr == p_) {
        sink_.integer(value);
        return;
      }
      // Fall through to double on overflow.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(start, p_, value);
    if (ec != std::errc() || ptr != p_) fail("unparseable number");
    sink_.real(value);
  }
};

/// Builds the DOM: the values of every open array and object wait on a
/// scratch stack, the keys of open objects on another, and a container is
/// built once its closing bracket arrives, at its final size.
class DomBuilder {
 public:
  void null() { values_.emplace_back(nullptr); }
  void boolean(bool b) { values_.emplace_back(b); }
  void integer(std::int64_t i) { values_.emplace_back(i); }
  void real(double d) { values_.emplace_back(d); }
  void string(std::string_view s) { values_.emplace_back(s); }
  void key(std::string_view k, const char*) { keys_.emplace_back(k); }
  void done(const char*) {}

  void open(bool) { open_.push_back(Open{values_.size(), keys_.size()}); }

  void close(bool object) {
    const Open open = open_.back();
    open_.pop_back();
    if (object) {
      JsonObject built;
      built.reserve(keys_.size() - open.first_key);
      for (std::size_t i = 0; open.first_key + i < keys_.size(); ++i) {
        built.set(std::move(keys_[open.first_key + i]), std::move(values_[open.first_value + i]));
      }
      keys_.resize(open.first_key);
      values_.resize(open.first_value);
      values_.emplace_back(std::move(built));
    } else {
      const auto first = values_.begin() + static_cast<std::ptrdiff_t>(open.first_value);
      JsonArray built(std::make_move_iterator(first), std::make_move_iterator(values_.end()));
      values_.resize(open.first_value);
      values_.emplace_back(std::move(built));
    }
  }

  /// The document, once the reader has finished.
  Json take() { return std::move(values_.back()); }

 private:
  /// An array or object whose closing bracket has not arrived yet.
  struct Open {
    std::size_t first_value;  ///< its first element's place in values_
    std::size_t first_key;    ///< an object's first key's place in keys_
  };

  std::vector<Json> values_;
  std::vector<std::string> keys_;
  std::vector<Open> open_;
};

/// splitmix64's finaliser.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Digests values as a byte stream, the same whether the values come from
/// the reader or from a walk over a DOM.  Each value is a tag byte, then a
/// string's or key's length (seven bits a byte, low bits first, the high
/// bit set on every byte but the last) and bytes, or a number's eight
/// bytes; an array or object is an open tag, its elements (an object's
/// each after its key) and an end tag.  So the stream is self-delimiting,
/// and two values stream alike exactly when they are equal with their keys
/// in the same order; whitespace and escapes never reach it.  Word i of
/// the stream goes through splitmix64's finaliser in chain i mod 4, and the
/// four chains and the stream's length fold into the digest at the end.
class Digester {
 public:
  void null() { tag(kNull); }
  void boolean(bool b) { tag(b ? kTrue : kFalse); }
  void integer(std::int64_t i) { number(kInteger, i); }
  void real(double d) { number(kDouble, d); }
  void string(std::string_view s) { text(kString, s); }
  void key(std::string_view k, const char*) { text(kKey, k); }
  void open(bool object) { tag(object ? kObject : kArray); }
  void close(bool) { tag(kEnd); }
  void done(const char*) {}

  void value(const Json& json) {
    switch (json.type()) {
      case Json::Type::Null: null(); break;
      case Json::Type::Boolean: boolean(json.as_boolean()); break;
      case Json::Type::Integer: integer(json.as_integer()); break;
      case Json::Type::Double: real(json.as_double()); break;
      case Json::Type::String: string(json.as_string()); break;
      case Json::Type::Array:
        open(false);
        for (const Json& element : json.as_array()) value(element);
        close(false);
        break;
      case Json::Type::Object:
        open(true);
        for (const auto& [name, member] : json.as_object()) {
          key(name, nullptr);
          value(member);
        }
        close(true);
        break;
    }
  }

  /// The digest of everything streamed so far; the digester starts over.
  JsonDigest finish() {
    const std::uint64_t total = mixed_ + used_;
    flush();
    std::size_t offset = 0;
    for (std::size_t lane = 0; offset + 8 <= used_; offset += 8, ++lane) {
      lanes_[lane] = mix64(lanes_[lane] ^ word_at(offset));
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, buffer_.data() + offset, used_ - offset);
    const std::uint64_t a = mix64(mix64(lanes_[0] ^ tail) ^ lanes_[1]);
    const std::uint64_t b = mix64(mix64(lanes_[2] ^ total) ^ lanes_[3]);
    *this = Digester();
    return {mix64(a ^ std::rotl(b, 32)), mix64(b ^ std::rotl(a, 21) ^ total)};
  }

 private:
  enum Tag : unsigned char {
    kNull,
    kFalse,
    kTrue,
    kInteger,
    kDouble,
    kString,
    kArray,
    kObject,
    kKey,
    kEnd
  };

  static constexpr std::size_t kBuffer = 4096;
  static constexpr std::size_t kBlock = 32;  ///< one word per chain

  void tag(Tag t) {
    if (used_ == kBuffer) flush();
    buffer_[used_++] = t;
  }

  template <typename Number>
  void number(Tag t, Number n) {
    static_assert(sizeof n == 8);
    if (kBuffer - used_ < 9) flush();
    buffer_[used_++] = t;
    std::memcpy(buffer_.data() + used_, &n, 8);
    used_ += 8;
  }

  void text(Tag t, std::string_view bytes) {
    if (kBuffer - used_ < 11) flush();
    buffer_[used_++] = t;
    std::size_t size = bytes.size();
    while (size > 0x7f) {
      buffer_[used_++] = static_cast<unsigned char>(size | 0x80);
      size >>= 7;
    }
    buffer_[used_++] = static_cast<unsigned char>(size);
    const char* from = bytes.data();
    size = bytes.size();
    while (size > kBuffer - used_) {
      const std::size_t room = kBuffer - used_;
      std::memcpy(buffer_.data() + used_, from, room);
      used_ += room;
      from += room;
      size -= room;
      flush();
    }
    std::memcpy(buffer_.data() + used_, from, size);
    used_ += size;
  }

  [[nodiscard]] std::uint64_t word_at(std::size_t offset) const noexcept {
    std::uint64_t word = 0;
    std::memcpy(&word, buffer_.data() + offset, sizeof word);
    return word;
  }

  /// Mixes the buffer's whole blocks of four words and keeps the rest, so
  /// every flush starts at chain 0.
  void flush() {
    const std::size_t whole = used_ - used_ % kBlock;
    std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2], l3 = lanes_[3];
    for (std::size_t offset = 0; offset < whole; offset += kBlock) {
      l0 = mix64(l0 ^ word_at(offset));
      l1 = mix64(l1 ^ word_at(offset + 8));
      l2 = mix64(l2 ^ word_at(offset + 16));
      l3 = mix64(l3 ^ word_at(offset + 24));
    }
    lanes_ = {l0, l1, l2, l3};
    std::memmove(buffer_.data(), buffer_.data() + whole, used_ - whole);
    mixed_ += whole;
    used_ -= whole;
  }

  std::array<std::uint64_t, 4> lanes_ = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                                         0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  std::array<unsigned char, kBuffer> buffer_{};
  std::size_t used_ = 0;
  std::uint64_t mixed_ = 0;
};

/// Builds the DOM of a document whose top-level object's members named in
/// `members` are only digested: each such value is left as null in the
/// DOM, and its member entry gets the value's text and digest.
class MemberDigester {
 public:
  explicit MemberDigester(std::span<DigestedMember> members) : members_(members) {}

  void null() { forward([](auto& sink) { sink.null(); }); }
  void boolean(bool b) { forward([b](auto& sink) { sink.boolean(b); }); }
  void integer(std::int64_t i) { forward([i](auto& sink) { sink.integer(i); }); }
  void real(double d) { forward([d](auto& sink) { sink.real(d); }); }
  void string(std::string_view s) { forward([s](auto& sink) { sink.string(s); }); }

  void key(std::string_view k, const char* value) {
    if (digesting_ != nullptr) {
      digester_.key(k, value);
      return;
    }
    builder_.key(k, value);
    if (depth_ != 1 || !root_object_) return;
    for (DigestedMember& member : members_) {
      if (member.key == k) {
        digesting_ = &member;
        value_ = value;
        return;
      }
    }
  }

  void open(bool object) {
    if (depth_++ == 0) root_object_ = object;
    forward([object](auto& sink) { sink.open(object); });
  }

  void close(bool object) {
    --depth_;
    forward([object](auto& sink) { sink.close(object); });
  }

  void done(const char* end) {
    if (digesting_ == nullptr || depth_ != 1) return;
    digesting_->text = std::string_view(value_, static_cast<std::size_t>(end - value_));
    digesting_->digest = digester_.finish();
    digesting_ = nullptr;
    builder_.null();
  }

  Json take() { return builder_.take(); }

 private:
  template <typename Event>
  void forward(Event&& event) {
    if (digesting_ != nullptr) {
      event(digester_);
    } else {
      event(builder_);
    }
  }

  std::span<DigestedMember> members_;
  DomBuilder builder_;
  Digester digester_;
  /// The member whose value is being digested, if any.
  DigestedMember* digesting_ = nullptr;
  const char* value_ = nullptr;  ///< where that value starts
  std::size_t depth_ = 0;        ///< open containers
  bool root_object_ = false;
};

}  // namespace

Json Json::parse(std::string_view text) {
  DomBuilder builder;
  Reader(text, builder).read_document();
  return builder.take();
}

Json Json::parse_digesting(std::string_view text, std::span<DigestedMember> members) {
  for (DigestedMember& member : members) member.text = {};
  MemberDigester sink(members);
  Reader(text, sink).read_document();
  return sink.take();
}

JsonDigest Json::digest() const {
  Digester digester;
  digester.value(*this);
  return digester.finish();
}

JsonDigest Json::digest_text(std::string_view text) {
  Digester digester;
  Reader(text, digester).read_document();
  return digester.finish();
}

Json json_number(double value) { return std::isfinite(value) ? Json(value) : Json(nullptr); }

}  // namespace icsdiv::support
