#include "graph/graph.hpp"

#include <algorithm>

namespace icsdiv::graph {

Graph::Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

VertexId Graph::add_vertices(std::size_t count) {
  const auto first = static_cast<VertexId>(adjacency_.size());
  adjacency_.resize(adjacency_.size() + count);
  return first;
}

VertexId Graph::checked(VertexId v) const {
  require(v < adjacency_.size(), "Graph", "vertex id out of range");
  return v;
}

void Graph::add_edge(VertexId u, VertexId v) {
  const bool added = add_edge_if_absent(u, v);
  require(added, "Graph::add_edge", "edge already present");
}

bool Graph::add_edge_if_absent(VertexId u, VertexId v) {
  checked(u);
  checked(v);
  require(u != v, "Graph::add_edge", "self-loops are not allowed");
  if (has_edge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  edges_.push_back(Edge{std::min(u, v), std::max(u, v)});
  return true;
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  checked(u);
  checked(v);
  // Scan the smaller adjacency list.
  const auto& list = adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  const VertexId needle = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(list.begin(), list.end(), needle) != list.end();
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  checked(v);
  return adjacency_[v];
}

std::size_t Graph::degree(VertexId v) const {
  checked(v);
  return adjacency_[v].size();
}

}  // namespace icsdiv::graph
