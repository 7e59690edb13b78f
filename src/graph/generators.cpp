#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace icsdiv::graph {

Graph random_network(std::size_t vertex_count, double average_degree, support::Rng& rng) {
  require(average_degree >= 0.0, "random_network", "average degree must be non-negative");
  const auto target_edges = static_cast<std::size_t>(
      std::llround(static_cast<double>(vertex_count) * average_degree / 2.0));

  Graph graph(vertex_count);
  if (vertex_count < 2) return graph;

  // Random spanning backbone: a shuffled path visits every vertex, so the
  // graph is connected regardless of how sparse the random part is.
  std::vector<VertexId> order(vertex_count);
  std::iota(order.begin(), order.end(), VertexId{0});
  rng.shuffle(std::span<VertexId>(order));
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    graph.add_edge_if_absent(order[i], order[i + 1]);
  }

  const std::size_t max_edges = vertex_count * (vertex_count - 1) / 2;
  const std::size_t want = std::min(std::max(target_edges, graph.edge_count()), max_edges);
  std::size_t stale = 0;
  while (graph.edge_count() < want) {
    const auto u = static_cast<VertexId>(rng.index(vertex_count));
    const auto v = static_cast<VertexId>(rng.index(vertex_count));
    if (u == v || !graph.add_edge_if_absent(u, v)) {
      // Dense graphs reject often; bail out once additions become hopeless.
      if (++stale > 64 * max_edges) break;
      continue;
    }
    stale = 0;
  }
  return graph;
}

Graph zoned_topology(const ZonedTopologyParams& params, support::Rng& rng) {
  require(!params.zone_sizes.empty(), "zoned_topology", "need at least one zone");
  require(params.intra_zone_density >= 0.0 && params.intra_zone_density <= 1.0,
          "zoned_topology", "intra_zone_density must be in [0,1]");

  const std::size_t total =
      std::accumulate(params.zone_sizes.begin(), params.zone_sizes.end(), std::size_t{0});
  Graph graph(total);

  std::vector<std::size_t> prefix(params.zone_sizes.size() + 1, 0);
  for (std::size_t z = 0; z < params.zone_sizes.size(); ++z) {
    prefix[z + 1] = prefix[z] + params.zone_sizes[z];
  }

  // Dense intra-zone wiring: spanning path plus Bernoulli extras.
  for (std::size_t z = 0; z < params.zone_sizes.size(); ++z) {
    const std::size_t begin = prefix[z];
    const std::size_t end = prefix[z + 1];
    for (std::size_t u = begin; u + 1 < end; ++u) {
      graph.add_edge_if_absent(static_cast<VertexId>(u), static_cast<VertexId>(u + 1));
    }
    for (std::size_t u = begin; u < end; ++u) {
      for (std::size_t v = u + 2; v < end; ++v) {
        if (rng.bernoulli(params.intra_zone_density)) {
          graph.add_edge_if_absent(static_cast<VertexId>(u), static_cast<VertexId>(v));
        }
      }
    }
  }

  // Sparse bridges between consecutive zones (the "firewall" links).
  for (std::size_t z = 0; z + 1 < params.zone_sizes.size(); ++z) {
    for (std::size_t k = 0; k < params.inter_zone_links; ++k) {
      const auto u = static_cast<VertexId>(prefix[z] + rng.index(params.zone_sizes[z]));
      const auto v = static_cast<VertexId>(prefix[z + 1] + rng.index(params.zone_sizes[z + 1]));
      graph.add_edge_if_absent(u, v);
    }
  }
  return graph;
}

}  // namespace icsdiv::graph
