#include "runner/shard.hpp"

#include <charconv>
#include <system_error>

#include "support/error.hpp"

namespace icsdiv::runner {

ShardSpec parse_shard(std::string_view text) {
  // Digits only: from_chars takes no sign, space or prefix, and reports a
  // value past size_t instead of wrapping it into another shard.
  const auto parse_count = [](std::string_view digits) {
    std::size_t value = 0;
    const char* const end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, value);
    require(error == std::errc{} && stop == end, "parse_shard", "shard must be K/N (e.g. 0/4)");
    return value;
  };
  const std::size_t slash = text.find('/');
  require(slash != std::string_view::npos, "parse_shard", "shard must be K/N (e.g. 0/4)");
  ShardSpec shard;
  shard.index = parse_count(text.substr(0, slash));
  shard.count = parse_count(text.substr(slash + 1));
  require(shard.count >= 1, "parse_shard", "shard count must be at least 1");
  require(shard.index < shard.count, "parse_shard", "shard index must be below the count");
  return shard;
}

bool shard_owns(const ShardSpec& shard, const ArtifactKey& solve_key) noexcept {
  return (solve_key.hi ^ solve_key.lo) % shard.count == shard.index;
}

}  // namespace icsdiv::runner
