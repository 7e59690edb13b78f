// Property tests for the random topology generators: per-seed determinism
// and zone-structure invariants — the systematic companion of the spot
// checks in generators_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "graph_checks.hpp"

namespace icsdiv::graph {
namespace {

/// Same seed ⇒ identical edge lists; a different seed ⇒ a different graph
/// (for any generator with enough randomness to make collisions absurd).
template <typename Generator>
void expect_seed_determinism(Generator&& generate) {
  support::Rng a(42);
  support::Rng b(42);
  const Graph ga = generate(a);
  const Graph gb = generate(b);
  ASSERT_EQ(ga.vertex_count(), gb.vertex_count());
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (std::size_t i = 0; i < ga.edge_count(); ++i) {
    EXPECT_EQ(ga.edges()[i], gb.edges()[i]);
  }
  support::Rng c(43);
  const Graph gc = generate(c);
  const bool identical = gc.edge_count() == ga.edge_count() &&
                         std::equal(ga.edges().begin(), ga.edges().end(), gc.edges().begin());
  EXPECT_FALSE(identical);
}

/// No self-loops, no duplicate undirected edges.
void expect_simple_graph(const Graph& g) {
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.u, e.v);
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate edge " << e.u << "-" << e.v;
  }
}

TEST(GeneratorsProperty, PerSeedDeterminism) {
  expect_seed_determinism([](support::Rng& rng) { return random_network(40, 5.0, rng); });
  expect_seed_determinism([](support::Rng& rng) {
    ZonedTopologyParams params;
    params.zone_sizes = {8, 10, 6};
    params.intra_zone_density = 0.4;
    return zoned_topology(params, rng);
  });
}

/// Zone index of a vertex under consecutive layout.
std::size_t zone_of(VertexId v, const std::vector<std::size_t>& sizes) {
  std::size_t prefix = 0;
  for (std::size_t z = 0; z < sizes.size(); ++z) {
    prefix += sizes[z];
    if (v < prefix) return z;
  }
  return sizes.size();
}

TEST(ZonedTopologyProperty, ChainedZoneInvariants) {
  ZonedTopologyParams params;
  params.zone_sizes = {6, 9, 5, 7};
  params.intra_zone_density = 0.5;
  params.inter_zone_links = 2;
  support::Rng rng(21);
  const Graph g = zoned_topology(params, rng);
  EXPECT_EQ(g.vertex_count(), 27u);
  expect_simple_graph(g);
  EXPECT_TRUE(is_connected(g));  // intra spanning paths + chain bridges

  // Chained layout: every edge stays within a zone or crosses to the
  // adjacent one, never further (the firewall shape of Fig. 3).
  std::vector<std::size_t> cross_count(params.zone_sizes.size(), 0);
  for (const Edge& e : g.edges()) {
    const std::size_t zu = zone_of(e.u, params.zone_sizes);
    const std::size_t zv = zone_of(e.v, params.zone_sizes);
    const std::size_t lo = std::min(zu, zv);
    ASSERT_LE(std::max(zu, zv) - lo, 1u);
    if (zu != zv) ++cross_count[lo];
  }
  // Between 1 (collisions can only drop repeats) and inter_zone_links
  // bridges per adjacent pair.
  for (std::size_t z = 0; z + 1 < params.zone_sizes.size(); ++z) {
    EXPECT_GE(cross_count[z], 1u);
    EXPECT_LE(cross_count[z], params.inter_zone_links);
  }
}

TEST(ZonedTopologyProperty, FullMeshDensityAndChainedBridges) {
  ZonedTopologyParams params;
  params.zone_sizes = {4, 5, 3};
  params.intra_zone_density = 1.0;
  params.inter_zone_links = 1;
  support::Rng rng(22);
  const Graph g = zoned_topology(params, rng);
  expect_simple_graph(g);
  // Full intra meshes are deterministic: C(4,2)+C(5,2)+C(3,2) edges, plus
  // one bridge per adjacent zone pair.
  EXPECT_EQ(g.edge_count(), 6u + 10u + 3u + 2u);
  std::set<std::pair<std::size_t, std::size_t>> bridged;
  for (const Edge& e : g.edges()) {
    const std::size_t zu = zone_of(e.u, params.zone_sizes);
    const std::size_t zv = zone_of(e.v, params.zone_sizes);
    if (zu != zv) bridged.insert(std::minmax(zu, zv));
  }
  EXPECT_EQ(bridged, (std::set<std::pair<std::size_t, std::size_t>>{{0, 1}, {1, 2}}));
}

}  // namespace
}  // namespace icsdiv::graph
