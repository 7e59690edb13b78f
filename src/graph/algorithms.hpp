// BFS hop distances over a topology: the attack-DAG layering (§VI) orients
// each link away from the entry host by these distances.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace icsdiv::graph {

/// Distance marker for unreachable vertices.
inline constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

/// BFS hop distances from `source`; unreachable vertices get kUnreachable.
[[nodiscard]] std::vector<std::size_t> bfs_distances(const Graph& graph, VertexId source);

}  // namespace icsdiv::graph
