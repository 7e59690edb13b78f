#include "graph/layered_dag.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace icsdiv::graph {

LayeredDag::LayeredDag(const Graph& graph, VertexId entry) : entry_(graph.checked(entry)) {
  const std::vector<std::size_t> dist = bfs_distances(graph, entry);
  depth_.assign(dist.begin(), dist.end());
  for (auto& d : depth_) {
    if (d == kUnreachable) d = kNoDepth;
  }

  incoming_.resize(graph.vertex_count());
  outgoing_.resize(graph.vertex_count());

  const auto all_edges = graph.edges();
  for (std::size_t index = 0; index < all_edges.size(); ++index) {
    const Edge& e = all_edges[index];
    const std::size_t du = depth_[e.u];
    const std::size_t dv = depth_[e.v];
    if (du == kNoDepth || dv == kNoDepth) continue;  // not reachable from entry

    // Edges are canonical (u < v), so a same-layer link already runs
    // low→high index, which is acyclic by construction.
    VertexId from = e.u;
    VertexId to = e.v;
    if (du > dv) std::swap(from, to);
    const std::size_t dag_index = edges_.size();
    edges_.push_back(DagEdge{from, to, index});
    outgoing_[from].push_back(dag_index);
    incoming_[to].push_back(dag_index);
  }

  // Topological order: (depth, vertex id) lexicographic covers both the
  // cross-layer and the same-layer orientations.
  topo_.clear();
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (depth_[v] != kNoDepth) topo_.push_back(v);
  }
  std::sort(topo_.begin(), topo_.end(), [&](VertexId a, VertexId b) {
    if (depth_[a] != depth_[b]) return depth_[a] < depth_[b];
    return a < b;
  });
}

}  // namespace icsdiv::graph
