// Deterministic RNG: reproducibility and distribution sanity.
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

namespace icsdiv::support {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.uniform_below(bound), bound);
  }
  EXPECT_THROW((void)rng.uniform_below(0), InvalidArgument);
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW((void)rng.uniform_int(2, 1), InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_LT(same, 4);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Regression pin: seeding must never silently change across refactors,
  // or every recorded experiment output becomes unreproducible.
  std::uint64_t again = 0;
  EXPECT_EQ(splitmix64(again), first);
}

}  // namespace
}  // namespace icsdiv::support
