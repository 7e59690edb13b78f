#include "graph/algorithms.hpp"

#include <deque>

namespace icsdiv::graph {

std::vector<std::size_t> bfs_distances(const Graph& graph, VertexId source) {
  graph.checked(source);
  std::vector<std::size_t> dist(graph.vertex_count(), kUnreachable);
  std::deque<VertexId> frontier{source};
  dist[source] = 0;
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop_front();
    for (VertexId v : graph.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace icsdiv::graph
