// Fuzz target for support::json, in libFuzzer form.  For every input,
// Json::parse, the digest scan (Json::digest_text) and the member-digesting
// parse (Json::parse_digesting, as the daemon reads a frame) must accept or
// refuse alike, with the same message, line and column.  An accepted text
// that repeats no key must digest as its DOM does, and parse_digesting must
// hand back the text and digest of each named member.  A broken property
// aborts, which libFuzzer reports as a crash.
//
// Built with clang's -fsanitize=fuzzer it is a fuzzer; linked with
// json_fuzz_replay.cpp it replays a corpus under ctest (any compiler).
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace {

using icsdiv::ParseError;
using icsdiv::support::DigestedMember;
using icsdiv::support::Json;
using icsdiv::support::JsonDigest;

[[noreturn]] void broken(std::string_view what, std::string_view text) {
  std::fprintf(stderr, "json_fuzz: %.*s for a %zu-byte input\n", static_cast<int>(what.size()),
               what.data(), text.size());
  std::abort();
}

/// "accepted", or the refusal's message, line and column.
template <typename Read>
std::string outcome(Read&& read) {
  try {
    read();
    return "accepted";
  } catch (const ParseError& error) {
    return std::string(error.what())
        .append(" @")
        .append(std::to_string(error.line()))
        .append(":")
        .append(std::to_string(error.column()));
  }
}

/// Whether an object of `text`, a document Json::parse accepted, repeats a
/// key.  Keys compare unescaped, as the parser stores them.
bool repeats_a_key(std::string_view text) {
  std::vector<std::optional<std::set<std::string>>> open;  // an object's keys, or an array
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{') {
      open.emplace_back(std::set<std::string>());
    } else if (c == '[') {
      open.emplace_back();
    } else if (c == '}' || c == ']') {
      open.pop_back();
    } else if (c == '"') {
      const std::size_t start = i;
      for (++i; text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      std::size_t after = i + 1;
      while (after < text.size() && (text[after] == ' ' || text[after] == '\n' ||
                                     text[after] == '\t' || text[after] == '\r')) {
        ++after;
      }
      if (after < text.size() && text[after] == ':' && !open.empty() && open.back()) {
        const std::string key = Json::parse(text.substr(start, i + 1 - start)).as_string();
        if (!open.back()->insert(key).second) return true;
      }
    }
  }
  return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::optional<Json> parsed;
  const std::string parse = outcome([&] { parsed = Json::parse(text); });
  JsonDigest scanned;
  if (outcome([&] { scanned = Json::digest_text(text); }) != parse) {
    broken("digest_text and parse disagree", text);
  }
  std::array<DigestedMember, 2> members{{{"catalog", {}, {}}, {"network", {}, {}}}};
  std::optional<Json> envelope;
  if (outcome([&] { envelope = Json::parse_digesting(text, members); }) != parse) {
    broken("parse_digesting and parse disagree", text);
  }
  if (!parsed) return 0;

  if (!repeats_a_key(text) && scanned != parsed->digest()) {
    broken("a text without repeated keys digests unlike its DOM", text);
  }
  // The compact text repeats no key.  It may differ from the DOM in type
  // (a double with an integral value is written like an integer), so it is
  // compared with the DOM read back from it.
  const std::string compact = parsed->dump();
  if (Json::digest_text(compact) != Json::parse(compact).digest()) {
    broken("a DOM's compact text digests unlike its own DOM", text);
  }
  // The envelope is the DOM with each named top-level member set to null.
  Json expected = *parsed;
  if (expected.is_object()) {
    for (const DigestedMember& member : members) {
      if (Json* value = expected.as_object().find(member.key)) *value = Json(nullptr);
    }
  }
  if (envelope->dump() != expected.dump()) broken("parse_digesting built another envelope", text);
  for (const DigestedMember& member : members) {
    const Json* value = parsed->is_object() ? parsed->as_object().find(member.key) : nullptr;
    if ((value != nullptr) != (member.text.data() != nullptr)) {
      broken("parse_digesting found a different set of members", text);
    }
    if (value == nullptr) continue;
    if (!envelope->as_object().at(member.key).is_null()) {
      broken("a digested member is not null in the envelope", text);
    }
    const Json reread = Json::parse(member.text);
    if (reread.dump() != value->dump() || member.digest != Json::digest_text(member.text)) {
      broken("a digested member's text or digest is not its value's", text);
    }
  }
  return 0;
}
