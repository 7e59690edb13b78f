// BFS-layered attack DAG.
//
// Section VI evaluates assignments on a Bayesian network built from attack
// paths out of an entry host.  Because the underlying topology is an
// undirected graph with cycles, we orient it into a DAG by BFS layering
// from the entry: an undirected link {u, v} becomes the directed attack
// step u→v when u is strictly closer to the entry (the standard attack-
// graph unrolling; malware spreading "backwards" is dominated by the
// forward route it arrived on).  Links between hosts at the same BFS depth
// are kept, oriented from the lower to the higher vertex index to stay
// acyclic.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace icsdiv::graph {

struct DagEdge {
  VertexId from;
  VertexId to;
  std::size_t undirected_edge_index;  ///< index into the source graph's edges()

  friend bool operator==(const DagEdge&, const DagEdge&) = default;
};

/// DAG over the vertices reachable from `entry`.
class LayeredDag {
 public:
  LayeredDag(const Graph& graph, VertexId entry);

  [[nodiscard]] VertexId entry() const noexcept { return entry_; }
  [[nodiscard]] std::size_t vertex_count() const noexcept { return depth_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& depths() const noexcept { return depth_; }
  [[nodiscard]] const std::vector<DagEdge>& edges() const noexcept { return edges_; }

  /// Incoming DAG edges per vertex (indices into edges()).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& incoming() const noexcept {
    return incoming_;
  }
  /// Outgoing DAG edges per vertex (indices into edges()).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& outgoing() const noexcept {
    return outgoing_;
  }

  [[nodiscard]] bool reachable(VertexId v) const {
    return depth_.at(v) != kNoDepth;
  }

  /// Vertices in topological (BFS depth, then index) order, entry first.
  [[nodiscard]] const std::vector<VertexId>& topological_order() const noexcept {
    return topo_;
  }

  static constexpr std::size_t kNoDepth = static_cast<std::size_t>(-1);

 private:
  VertexId entry_;
  std::vector<std::size_t> depth_;
  std::vector<DagEdge> edges_;
  std::vector<std::vector<std::size_t>> incoming_;
  std::vector<std::vector<std::size_t>> outgoing_;
  std::vector<VertexId> topo_;
};

}  // namespace icsdiv::graph
