// BFS-layered attack DAG construction.
#include "graph/layered_dag.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace icsdiv::graph {
namespace {

TEST(LayeredDag, OrientsEdgesAwayFromEntry) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const LayeredDag dag(g, 0);
  ASSERT_EQ(dag.edges().size(), 3u);
  for (const DagEdge& e : dag.edges()) {
    EXPECT_LT(dag.depths()[e.from], dag.depths()[e.to]);
  }
}

TEST(LayeredDag, SameLayerEdgesOrientedByIndex) {
  // Triangle: 0 is entry; 1 and 2 are both depth 1 with a cross edge.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const LayeredDag dag(g, 0);
  ASSERT_EQ(dag.edges().size(), 3u);
  for (const DagEdge& e : dag.edges()) {
    if (dag.depths()[e.from] == dag.depths()[e.to]) {
      EXPECT_LT(e.from, e.to);
    }
  }
}

TEST(LayeredDag, UnreachableVerticesExcluded) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);  // island
  const LayeredDag dag(g, 0);
  EXPECT_TRUE(dag.reachable(1));
  EXPECT_FALSE(dag.reachable(2));
  EXPECT_FALSE(dag.reachable(4));
  EXPECT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(dag.topological_order().size(), 2u);
}

TEST(LayeredDag, TopologicalOrderRespectsEdges) {
  support::Rng rng(5);
  const Graph g = random_network(60, 5.0, rng);
  const LayeredDag dag(g, 0);
  std::vector<std::size_t> position(g.vertex_count(), 0);
  for (std::size_t i = 0; i < dag.topological_order().size(); ++i) {
    position[dag.topological_order()[i]] = i;
  }
  for (const DagEdge& e : dag.edges()) {
    EXPECT_LT(position[e.from], position[e.to]) << e.from << "->" << e.to;
  }
}

TEST(LayeredDag, IncomingOutgoingConsistent) {
  support::Rng rng(6);
  const Graph g = random_network(40, 4.0, rng);
  const LayeredDag dag(g, 3);
  std::size_t total_in = 0;
  std::size_t total_out = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    total_in += dag.incoming()[v].size();
    total_out += dag.outgoing()[v].size();
    for (std::size_t e : dag.outgoing()[v]) EXPECT_EQ(dag.edges()[e].from, v);
    for (std::size_t e : dag.incoming()[v]) EXPECT_EQ(dag.edges()[e].to, v);
  }
  EXPECT_EQ(total_in, dag.edges().size());
  EXPECT_EQ(total_out, dag.edges().size());
}

TEST(LayeredDag, EntryHasDepthZeroAndNoIncoming) {
  support::Rng rng(7);
  const Graph g = random_network(30, 4.0, rng);
  const LayeredDag dag(g, 11);
  EXPECT_EQ(dag.depths()[11], 0u);
  EXPECT_TRUE(dag.incoming()[11].empty());
  EXPECT_EQ(dag.topological_order().front(), 11u);
}

TEST(LayeredDag, EdgeIndexMapsBackToGraph) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const LayeredDag dag(g, 0);
  for (const DagEdge& e : dag.edges()) {
    const Edge& original = g.edges()[e.undirected_edge_index];
    const bool matches = (original.u == e.from && original.v == e.to) ||
                         (original.u == e.to && original.v == e.from);
    EXPECT_TRUE(matches);
  }
}

}  // namespace
}  // namespace icsdiv::graph
