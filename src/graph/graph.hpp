// Undirected simple graph used to model network topologies (Def. 2's link
// relation L ⊆ H × H).  Vertices are dense indices [0, n); the diversity
// layer maps host names to indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace icsdiv::graph {

using VertexId = std::uint32_t;

/// An undirected edge; stored with u < v canonically.
struct Edge {
  VertexId u;
  VertexId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Mutable undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t vertex_count);

  /// Appends `count` new vertices; returns the id of the first one.
  VertexId add_vertices(std::size_t count);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Adds the undirected edge {u, v}.  Self-loops and duplicates throw.
  void add_edge(VertexId u, VertexId v);

  /// Adds {u, v} unless it already exists; returns whether it was added.
  bool add_edge_if_absent(VertexId u, VertexId v);

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Neighbours of `v` in insertion order.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  [[nodiscard]] std::size_t degree(VertexId v) const;

  /// All edges, canonicalised (u < v), in insertion order.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  [[nodiscard]] double average_degree() const noexcept {
    return vertex_count() == 0 ? 0.0
                               : 2.0 * static_cast<double>(edge_count()) /
                                     static_cast<double>(vertex_count());
  }

  /// Validates a vertex id (throws InvalidArgument) and returns it.
  VertexId checked(VertexId v) const;

 private:
  std::vector<std::vector<VertexId>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace icsdiv::graph
