// BFS distances, plus the connectivity and degree checkers the generator
// tests rely on.
#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "graph_checks.hpp"

namespace icsdiv::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(BfsDistances, UnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);  // 2 and 3 isolated
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(IsConnected, SmallCases) {
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_FALSE(is_connected(Graph(2)));
  EXPECT_TRUE(is_connected(path_graph(10)));
  Graph islands(4);
  islands.add_edge(0, 1);
  islands.add_edge(2, 3);
  EXPECT_FALSE(is_connected(islands));
}

TEST(DegreeStats, HandComputed) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
  EXPECT_DOUBLE_EQ(stats.variance, 0.75);
}

TEST(DegreeStats, EmptyGraph) {
  const DegreeStats stats = degree_stats(Graph(0));
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

}  // namespace
}  // namespace icsdiv::graph
