// Two-terminal reliability: exact factoring vs brute force.
#include "bayes/reliability.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace icsdiv::bayes {
namespace {

/// Brute-force reference: enumerate all 2^E edge subsets.
double reliability_brute_force(const ReliabilityProblem& problem) {
  const std::size_t m = problem.edges.size();
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double probability = 1.0;
    for (std::size_t e = 0; e < m; ++e) {
      probability *= (mask >> e) & 1 ? problem.edges[e].probability
                                     : 1.0 - problem.edges[e].probability;
    }
    if (probability == 0.0) continue;
    // BFS over the active subset.
    std::vector<bool> reached(problem.node_count, false);
    std::vector<std::uint32_t> stack{problem.source};
    reached[problem.source] = true;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::size_t e = 0; e < m; ++e) {
        if (!((mask >> e) & 1)) continue;
        if (problem.edges[e].from == u && !reached[problem.edges[e].to]) {
          reached[problem.edges[e].to] = true;
          stack.push_back(problem.edges[e].to);
        }
      }
    }
    if (reached[problem.target]) total += probability;
  }
  return total;
}

ReliabilityProblem series(double p1, double p2) {
  return ReliabilityProblem{3, {{0, 1, p1}, {1, 2, p2}}, 0, 2};
}

TEST(ReliabilityExact, SeriesAndParallelAnalytic) {
  EXPECT_NEAR(reliability_exact(series(0.5, 0.4)), 0.2, 1e-12);

  const ReliabilityProblem parallel{2, {{0, 1, 0.5}, {0, 1, 0.4}}, 0, 1};
  EXPECT_NEAR(reliability_exact(parallel), 1.0 - 0.5 * 0.6, 1e-12);

  // Diamond: two series branches in parallel.
  const ReliabilityProblem diamond{
      4, {{0, 1, 0.9}, {1, 3, 0.9}, {0, 2, 0.5}, {2, 3, 0.5}}, 0, 3};
  const double branch_a = 0.81;
  const double branch_b = 0.25;
  EXPECT_NEAR(reliability_exact(diamond), 1.0 - (1.0 - branch_a) * (1.0 - branch_b), 1e-12);
}

TEST(ReliabilityExact, EdgeCases) {
  // Source equals target.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{1, {}, 0, 0}), 1.0);
  // Disconnected.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {}, 0, 1}), 0.0);
  // Certain edge.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {{0, 1, 1.0}}, 0, 1}), 1.0);
  // Impossible edge.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {{0, 1, 0.0}}, 0, 1}), 0.0);
  // Edge *into* the source never helps.
  EXPECT_NEAR(reliability_exact(ReliabilityProblem{3, {{1, 0, 0.9}, {0, 2, 0.3}}, 0, 2}),
              0.3, 1e-12);
}

TEST(ReliabilityExact, DirectionalityMatters) {
  // The only route runs against the edge direction: unreachable.
  const ReliabilityProblem reversed{3, {{1, 0, 0.9}, {1, 2, 0.9}}, 0, 2};
  EXPECT_DOUBLE_EQ(reliability_exact(reversed), 0.0);
}

TEST(ReliabilityExact, CycleHandled) {
  // 0→1→2→target with a 2-cycle between 1 and 2.
  const ReliabilityProblem cyclic{
      4, {{0, 1, 0.8}, {1, 2, 0.7}, {2, 1, 0.9}, {2, 3, 0.6}}, 0, 3};
  EXPECT_NEAR(reliability_exact(cyclic), reliability_brute_force(cyclic), 1e-12);
}

class ReliabilityRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliabilityRandomSweep, ExactMatchesBruteForce) {
  support::Rng rng(GetParam());
  // Random DAG-ish digraph: 6 nodes, up to 12 edges (brute force: 4096 subsets).
  ReliabilityProblem problem;
  problem.node_count = 6;
  problem.source = 0;
  problem.target = 5;
  const std::size_t edge_count = 8 + rng.index(5);
  for (std::size_t e = 0; e < edge_count; ++e) {
    const auto from = static_cast<std::uint32_t>(rng.index(6));
    auto to = static_cast<std::uint32_t>(rng.index(6));
    if (to == from) to = (to + 1) % 6;
    problem.edges.push_back({from, to, 0.1 + 0.8 * rng.uniform()});
  }
  const double exact = reliability_exact(problem);
  const double brute = reliability_brute_force(problem);
  EXPECT_NEAR(exact, brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliabilityRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

TEST(ReliabilityProblem, Validation) {
  ReliabilityProblem bad{2, {{0, 5, 0.5}}, 0, 1};
  EXPECT_THROW(bad.validate(), icsdiv::InvalidArgument);
  ReliabilityProblem bad_probability{2, {{0, 1, 1.5}}, 0, 1};
  EXPECT_THROW(bad_probability.validate(), icsdiv::InvalidArgument);
  ReliabilityProblem bad_terminal{2, {}, 0, 7};
  EXPECT_THROW(bad_terminal.validate(), icsdiv::InvalidArgument);
}

TEST(ReliabilityExact, OversizedProblemRaisesInfeasible) {
  // A dense bipartite-ish mess the reducer cannot shrink below the cap.
  support::Rng rng(3);
  ReliabilityProblem problem;
  problem.node_count = 12;
  problem.source = 0;
  problem.target = 11;
  for (std::uint32_t a = 0; a < 12; ++a) {
    for (std::uint32_t b = 0; b < 12; ++b) {
      if (a != b && rng.bernoulli(0.7)) problem.edges.push_back({a, b, 0.5});
    }
  }
  EXPECT_THROW((void)reliability_exact(problem, /*max_edges=*/10), icsdiv::Infeasible);
}

}  // namespace
}  // namespace icsdiv::bayes
