// Deterministic pseudo-random number generation.
//
// Every randomised component of the library (network generators, synthetic
// NVD feed, Monte-Carlo reliability, worm simulation, baseline assignments)
// takes an explicit 64-bit seed so that experiments and tests are exactly
// reproducible across runs and platforms.  We use xoshiro256** seeded via
// splitmix64 — small, fast, and with well-understood statistical quality —
// instead of std::mt19937_64, whose seeding and distribution implementations
// differ across standard libraries.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "support/error.hpp"

namespace icsdiv::support {

/// splitmix64 step; used for seeding and for hashing small integers.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// ceil(p·2^53): a Bernoulli(p) acceptance threshold over raw generator
/// words.  `(rng() >> 11) < acceptance_threshold(p)` accepts exactly the
/// words `Rng::uniform() < p` would — uniform() is (x>>11)·2⁻⁵³ and scaling
/// a double by a power of two is exact — while costing one integer compare
/// instead of an int→double conversion per draw.  The compiled simulation
/// and reliability substrates precompute their probability pools this way.
[[nodiscard]] inline std::uint64_t acceptance_threshold(double p) noexcept {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// xoshiro256** generator.  Satisfies std::uniform_random_bit_generator so
/// it can also drive <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x1C5D1F00D5EEDULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be positive.
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) {
    require(bound > 0, "Rng::uniform_below", "bound must be positive");
    // Lemire's nearly-divisionless bounded generation with rejection.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    require(lo <= hi, "Rng::uniform_int", "empty range");
    const auto width = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_below(width));
  }

  /// Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Picks a uniformly random element index of a non-empty container size.
  [[nodiscard]] std::size_t index(std::size_t size) {
    return static_cast<std::size_t>(uniform_below(size));
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Derives an independent child generator; useful for giving each thread
  /// or each repetition its own deterministic stream.
  [[nodiscard]] Rng fork() noexcept {
    return Rng((*this)() ^ 0xA0761D6478BD642FULL);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// The library-wide convention for the `index`-th independent stream of a
/// seeded family: a golden-ratio stride hashed through splitmix64.  Chunked
/// Monte-Carlo loops that give each run (sim::CompiledPropagation::mttc) or
/// each sample chunk (bayes::CompiledReliability) its own stream this way
/// are bit-identical for every chunking, the sequential path included.
[[nodiscard]] inline Rng stream_rng(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  return Rng(splitmix64(state));
}

}  // namespace icsdiv::support
