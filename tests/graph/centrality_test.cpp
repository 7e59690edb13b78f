// Betweenness centrality: hand-checked values on canonical topologies.
#include "graph/centrality.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace icsdiv::graph {
namespace {

TEST(Betweenness, StarCenterDominates) {
  // Star with 5 leaves: the centre lies on all C(5,2)=10 leaf pairs.
  Graph g(6);
  for (VertexId leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf);
  const auto centrality = betweenness_centrality(g);
  EXPECT_DOUBLE_EQ(centrality[0], 10.0);
  for (VertexId leaf = 1; leaf < 6; ++leaf) EXPECT_DOUBLE_EQ(centrality[leaf], 0.0);
}

TEST(Betweenness, PathGraphValues) {
  // Path 0-1-2-3-4: vertex 2 lies on pairs {0,1}x{3,4} and {0,3},{0,4},{1,3},{1,4}...
  // exact values: b(1)=3, b(2)=4, b(3)=3.
  Graph g(5);
  for (VertexId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  const auto centrality = betweenness_centrality(g);
  EXPECT_DOUBLE_EQ(centrality[0], 0.0);
  EXPECT_DOUBLE_EQ(centrality[1], 3.0);
  EXPECT_DOUBLE_EQ(centrality[2], 4.0);
  EXPECT_DOUBLE_EQ(centrality[3], 3.0);
  EXPECT_DOUBLE_EQ(centrality[4], 0.0);
}

TEST(Betweenness, EvenSplitOnCycle) {
  // 4-cycle: every vertex lies on exactly one shortest path (the pair of
  // its two neighbours splits between two routes → 1/2 each... by symmetry
  // all values equal 0.5).
  Graph g(4);
  for (VertexId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  const auto centrality = betweenness_centrality(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_NEAR(centrality[v], 0.5, 1e-12);
}

TEST(Betweenness, DisconnectedGraphIsFine) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto centrality = betweenness_centrality(g);
  for (double value : centrality) EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(Betweenness, SumMatchesPairCountOnTrees) {
  // On a tree every pair has exactly one shortest path, so the betweenness
  // values sum to Σ over pairs of (path length − 1).
  support::Rng rng(5);
  const Graph g = random_network(30, 2.0 * 29.0 / 30.0, rng);  // spanning-tree-ish
  // Only valid when the generated graph is exactly a tree.
  if (g.edge_count() != g.vertex_count() - 1) GTEST_SKIP();
  const auto centrality = betweenness_centrality(g);
  double total = 0.0;
  for (double value : centrality) total += value;
  double expected = 0.0;
  for (VertexId s = 0; s < g.vertex_count(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (VertexId t = s + 1; t < g.vertex_count(); ++t) {
      expected += static_cast<double>(dist[t] - 1);
    }
  }
  EXPECT_NEAR(total, expected, 1e-6);
}

}  // namespace
}  // namespace icsdiv::graph
