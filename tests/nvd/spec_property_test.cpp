// Property sweep: for ANY feasible overlap specification, the concrete
// feed run through the full Def. 1 pipeline must reproduce the analytic
// similarity table exactly — the invariant that makes the Table II/III
// reproduction trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "nvd/synthetic.hpp"
#include "support/rng.hpp"

namespace icsdiv::nvd {
namespace {

/// Draws a random feasible spec: 4–7 products, random pairwise blocks and
/// occasionally a triple block, with totals padded to stay feasible.
OverlapSpec random_spec(support::Rng& rng) {
  OverlapSpec spec;
  const std::size_t n = 4 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    spec.products.push_back(ProductRef{
        std::string("p").append(std::to_string(i)),
        CpeUri::parse(std::string("cpe:/a:vendor")
                          .append(std::to_string(i % 3))
                          .append(":p")
                          .append(std::to_string(i)))});
  }
  std::vector<std::size_t> allocated(n, 0);
  // Random pair blocks.
  const std::size_t block_count = 2 + rng.index(5);
  for (std::size_t b = 0; b < block_count; ++b) {
    const std::size_t i = rng.index(n);
    std::size_t j = rng.index(n);
    if (i == j) j = (j + 1) % n;
    OverlapBlock block;
    block.members = {std::min(i, j), std::max(i, j)};
    block.count = 1 + rng.index(50);
    allocated[block.members[0]] += block.count;
    allocated[block.members[1]] += block.count;
    spec.blocks.push_back(std::move(block));
  }
  // Occasionally a triple block (requires n ≥ 3).
  if (rng.bernoulli(0.5)) {
    std::vector<std::size_t> members(n);
    std::iota(members.begin(), members.end(), std::size_t{0});
    rng.shuffle(std::span<std::size_t>(members));
    members.resize(3);
    std::sort(members.begin(), members.end());
    OverlapBlock block;
    block.members = members;
    block.count = 1 + rng.index(20);
    for (std::size_t m : members) allocated[m] += block.count;
    spec.blocks.push_back(std::move(block));
  }
  // Totals: allocation plus random unique slack.
  for (std::size_t i = 0; i < n; ++i) {
    spec.totals.push_back(allocated[i] + rng.index(60));
  }
  return spec;
}

class SpecPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpecPropertySweep, PipelineEqualsAnalyticTable) {
  support::Rng rng(GetParam());
  const OverlapSpec spec = random_spec(rng);
  ASSERT_NO_THROW(spec.validate());

  const VulnerabilityDatabase feed = generate_feed(spec);
  const SimilarityTable pipeline = SimilarityTable::from_database(feed, spec.products);
  const SimilarityTable analytic = spec.implied_similarity_table();

  const std::size_t n = spec.products.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(pipeline.total_count(i), analytic.total_count(i)) << "product " << i;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(pipeline.shared_count(i, j), analytic.shared_count(i, j))
          << "pair " << i << "," << j;
      EXPECT_DOUBLE_EQ(pipeline.similarity(i, j), analytic.similarity(i, j))
          << "pair " << i << "," << j;
    }
  }
}

TEST_P(SpecPropertySweep, FeedSurvivesJsonRoundTrip) {
  support::Rng rng(GetParam() * 1013);
  const OverlapSpec spec = random_spec(rng);
  const VulnerabilityDatabase feed = generate_feed(spec);
  const VulnerabilityDatabase restored =
      VulnerabilityDatabase::from_json_text(feed.to_json().dump());
  ASSERT_EQ(restored.size(), feed.size());
  const SimilarityTable a = SimilarityTable::from_database(feed, spec.products);
  const SimilarityTable b = SimilarityTable::from_database(restored, spec.products);
  for (std::size_t i = 0; i < spec.products.size(); ++i) {
    for (std::size_t j = 0; j < spec.products.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.similarity(i, j), b.similarity(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecPropertySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace icsdiv::nvd
