// Betweenness centrality.
//
// Used by the upgrade advisor workflow (examples/enterprise_network):
// betweenness identifies the choke-point hosts malware must traverse, the
// natural first candidates for re-imaging when the budget is small.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace icsdiv::graph {

/// Exact betweenness centrality (Brandes' algorithm, unweighted), one
/// value per vertex.  Undirected convention: each shortest path counted
/// once (values halved).
[[nodiscard]] std::vector<double> betweenness_centrality(const Graph& graph);

}  // namespace icsdiv::graph
