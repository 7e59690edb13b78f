// Open-addressed index from string keys to 32-bit positions.
//
// The index does not own its keys.  It records positions into a sequence
// the caller owns (host names, JSON object entries), and
// every call that compares or rehashes keys takes the caller's
// `key_of(position)` accessor.  Storing positions rather than pointers or
// string_views keeps the index valid when the owning vector reallocates,
// and a copy is one flat vector copy.
//
// Linear probing over a power-of-two table that is kept at most three
// quarters full, so it spends between 4/3 and 8/3 four-byte slots per
// key; std::hash<std::string_view> picks the home slot.  Keys crafted to
// collide under std::hash still degrade lookups towards a scan.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace icsdiv::support {

class NameIndex {
 public:
  /// Returned by find() for a key the index does not hold.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// The position recorded under `key`, or kAbsent.
  template <typename KeyOf>
  [[nodiscard]] std::uint32_t find(std::string_view key, const KeyOf& key_of) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = home(key) & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t position = slots_[slot];
      if (position == kAbsent || std::string_view(key_of(position)) == key) return position;
    }
  }

  /// Grows the table so that `count` positions fit without a rehash.
  /// Callers that must not be left half-updated reserve before they
  /// append to their sequence; insert() then cannot throw.
  template <typename KeyOf>
  void reserve(std::size_t count, const KeyOf& key_of) {
    if (4 * count <= 3 * slots_.size()) return;
    std::size_t capacity = std::max<std::size_t>(slots_.size(), kMinCapacity);
    while (4 * count > 3 * capacity) capacity *= 2;
    std::vector<std::uint32_t> old =
        std::exchange(slots_, std::vector<std::uint32_t>(capacity, kAbsent));
    for (const std::uint32_t position : old) {
      if (position != kAbsent) place(key_of(position), position);
    }
  }

  /// Records `position` under key_of(position), which the index must not
  /// hold yet.
  template <typename KeyOf>
  void insert(std::uint32_t position, const KeyOf& key_of) {
    reserve(size_ + 1, key_of);
    place(key_of(position), position);
    ++size_;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] static std::size_t home(std::string_view key) noexcept {
    return std::hash<std::string_view>{}(key);
  }

  void place(std::string_view key, std::uint32_t position) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = home(key) & mask;
    while (slots_[slot] != kAbsent) slot = (slot + 1) & mask;
    slots_[slot] = position;
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace icsdiv::support
