#include "graph/centrality.hpp"

#include <deque>

namespace icsdiv::graph {

std::vector<double> betweenness_centrality(const Graph& graph) {
  const std::size_t n = graph.vertex_count();
  std::vector<double> centrality(n, 0.0);

  // Brandes: one BFS per source with dependency accumulation.
  std::vector<std::vector<VertexId>> predecessors(n);
  std::vector<double> sigma(n);       // shortest-path counts
  std::vector<std::ptrdiff_t> dist(n);
  std::vector<double> delta(n);
  std::vector<VertexId> order;        // vertices in non-decreasing distance
  order.reserve(n);

  for (VertexId source = 0; source < n; ++source) {
    for (VertexId v = 0; v < n; ++v) {
      predecessors[v].clear();
      sigma[v] = 0.0;
      dist[v] = -1;
      delta[v] = 0.0;
    }
    order.clear();
    sigma[source] = 1.0;
    dist[source] = 0;
    std::deque<VertexId> frontier{source};
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop_front();
      order.push_back(v);
      for (const VertexId w : graph.neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          frontier.push_back(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          predecessors[w].push_back(v);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const VertexId w = *it;
      for (const VertexId v : predecessors[w]) {
        delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w]);
      }
      if (w != source) centrality[w] += delta[w];
    }
  }
  // Each undirected path was counted from both endpoints.
  for (double& value : centrality) value /= 2.0;
  return centrality;
}

}  // namespace icsdiv::graph
