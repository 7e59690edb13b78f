// Random topology generators: shape, connectivity and parameter sweeps.
#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph_checks.hpp"

namespace icsdiv::graph {
namespace {

class RandomNetworkSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(RandomNetworkSweep, HitsTargetDegreeAndConnectivity) {
  const auto [hosts, degree] = GetParam();
  support::Rng rng(1000 + hosts);
  const Graph g = random_network(hosts, degree, rng);
  EXPECT_EQ(g.vertex_count(), hosts);
  EXPECT_TRUE(is_connected(g));
  // Spanning backbone can push the average slightly above target on sparse
  // settings; allow that plus sampling slack.
  const double lower_bound = std::min(degree, 2.0 * (hosts - 1.0) / hosts) * 0.9;
  EXPECT_GE(g.average_degree(), lower_bound);
  EXPECT_LE(g.average_degree(), std::max(degree * 1.15, 2.1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomNetworkSweep,
                         ::testing::Values(std::pair<std::size_t, double>{50, 4.0},
                                           std::pair<std::size_t, double>{100, 10.0},
                                           std::pair<std::size_t, double>{200, 20.0},
                                           std::pair<std::size_t, double>{500, 8.0},
                                           std::pair<std::size_t, double>{64, 1.0}));

TEST(ZonedTopology, ZoneStructure) {
  support::Rng rng(11);
  ZonedTopologyParams params;
  params.zone_sizes = {5, 8, 4};
  params.intra_zone_density = 1.0;  // full mesh per zone
  params.inter_zone_links = 1;
  const Graph g = zoned_topology(params, rng);
  EXPECT_EQ(g.vertex_count(), 17u);
  EXPECT_TRUE(is_connected(g));
  // Full meshes: 10 + 28 + 6 intra edges; 2 zone bridges (chained), which
  // may collide with nothing (they cross zones).
  EXPECT_EQ(g.edge_count(), 10u + 28u + 6u + 2u);
}

TEST(ZonedTopology, ValidatesParameters) {
  support::Rng rng(12);
  EXPECT_THROW(zoned_topology(ZonedTopologyParams{}, rng), icsdiv::InvalidArgument);
  ZonedTopologyParams bad;
  bad.zone_sizes = {3};
  bad.intra_zone_density = 1.5;
  EXPECT_THROW(zoned_topology(bad, rng), icsdiv::InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::graph
