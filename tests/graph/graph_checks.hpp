// Topology checkers the generator and case-study tests assert with:
// connectivity and degree statistics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "graph/algorithms.hpp"

namespace icsdiv::graph {

inline bool is_connected(const Graph& graph) {
  if (graph.vertex_count() <= 1) return true;
  const auto dist = bfs_distances(graph, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::size_t d) { return d == kUnreachable; });
}

/// Summary statistics of the degree distribution.
struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  double variance = 0.0;
};

inline DegreeStats degree_stats(const Graph& graph) {
  DegreeStats stats;
  const std::size_t n = graph.vertex_count();
  if (n == 0) return stats;
  stats.min = std::numeric_limits<std::size_t>::max();
  double sum = 0.0;
  double sum_squares = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t d = graph.degree(v);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    sum += static_cast<double>(d);
    sum_squares += static_cast<double>(d) * static_cast<double>(d);
  }
  stats.mean = sum / static_cast<double>(n);
  stats.variance = sum_squares / static_cast<double>(n) - stats.mean * stats.mean;
  return stats;
}

}  // namespace icsdiv::graph
