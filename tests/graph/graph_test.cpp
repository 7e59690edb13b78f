// Graph container.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

namespace icsdiv::graph {
namespace {

TEST(Graph, AddVerticesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.vertex_count(), 3u);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 4.0 / 3.0);
}

TEST(Graph, AddVerticesReturnsFirstId) {
  Graph g;
  EXPECT_EQ(g.add_vertices(2), 0u);
  EXPECT_EQ(g.add_vertices(3), 2u);
  EXPECT_EQ(g.vertex_count(), 5u);
}

TEST(Graph, EdgesAreCanonical) {
  Graph g(4);
  g.add_edge(3, 1);
  const Edge e = g.edges()[0];
  EXPECT_EQ(e.u, 1u);
  EXPECT_EQ(e.v, 3u);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), icsdiv::InvalidArgument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), icsdiv::InvalidArgument);
  EXPECT_FALSE(g.add_edge_if_absent(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RejectsOutOfRangeVertices) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), icsdiv::InvalidArgument);
  EXPECT_THROW((void)g.degree(5), icsdiv::InvalidArgument);
  EXPECT_THROW((void)g.neighbors(2), icsdiv::InvalidArgument);
}

TEST(Graph, NeighborsListsBothDirections) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(g.neighbors(2).size(), 1u);
}

}  // namespace
}  // namespace icsdiv::graph
