// Random topology generators.
//
// Section VIII of the paper evaluates scalability on "randomly generated
// networks" parameterised by host count and average degree
// (random_network); zoned_topology builds the Fig. 3-shaped zoned
// networks of the upgrade example.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace icsdiv::graph {

/// Random network with a target *average* degree, as used by the paper's
/// scalability study: a random Hamiltonian-style backbone, so no host is
/// unreachable, topped up with uniform random edges to
/// m = round(n * average_degree / 2).
[[nodiscard]] Graph random_network(std::size_t vertex_count, double average_degree,
                                   support::Rng& rng);

/// Parameters for the zoned (IT/OT-like) topology generator.
struct ZonedTopologyParams {
  std::vector<std::size_t> zone_sizes;      ///< hosts per zone
  double intra_zone_density = 0.5;          ///< P(edge) within a zone
  std::size_t inter_zone_links = 2;         ///< links between adjacent zones
};

/// Generates a multi-zone network shaped like Fig. 3: a chain of dense
/// zones, each bridged to the next by a few firewall-style links.  Zones
/// are laid out consecutively; the k-th zone occupies vertices
/// [prefix(k), prefix(k)+size_k).
[[nodiscard]] Graph zoned_topology(const ZonedTopologyParams& params, support::Rng& rng);

}  // namespace icsdiv::graph
