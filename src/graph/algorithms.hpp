// Graph algorithms shared by the optimisation, evaluation and baseline
// layers: BFS distances (attack-DAG layering), connectivity, greedy
// colouring (the O'Donnell & Sethu baseline assigns products like colours),
// maximal matching and degree statistics.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace icsdiv::graph {

/// Distance marker for unreachable vertices.
inline constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

/// BFS hop distances from `source`; unreachable vertices get kUnreachable.
[[nodiscard]] std::vector<std::size_t> bfs_distances(const Graph& graph, VertexId source);

/// Shortest path from `source` to `target` (inclusive) or nullopt.
[[nodiscard]] std::optional<std::vector<VertexId>> shortest_path(const Graph& graph,
                                                                 VertexId source,
                                                                 VertexId target);

/// Connected component id per vertex, ids dense from 0.
[[nodiscard]] std::vector<std::size_t> connected_components(const Graph& graph);

[[nodiscard]] bool is_connected(const Graph& graph);

/// Greedy sequential colouring in largest-degree-first order; returns one
/// colour per vertex.  Used by the diversity baseline that assigns distinct
/// products to adjacent hosts ignoring similarity weights.
[[nodiscard]] std::vector<std::size_t> greedy_coloring(const Graph& graph);

/// Randomised maximal matching; each vertex appears in at most one pair.
[[nodiscard]] std::vector<Edge> maximal_matching(const Graph& graph, support::Rng& rng);

/// Summary statistics of the degree distribution.
struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  double variance = 0.0;
};

[[nodiscard]] DegreeStats degree_stats(const Graph& graph);

}  // namespace icsdiv::graph
