#include "runner/workload.hpp"

#include "graph/generators.hpp"

namespace icsdiv::runner {

WorkloadInstance make_workload(const WorkloadParams& params) {
  support::Rng rng(params.seed);

  WorkloadInstance instance;
  instance.catalog = std::make_unique<core::ProductCatalog>();
  core::ProductCatalog& catalog = *instance.catalog;

  std::vector<std::vector<core::ProductId>> products_of_service(params.services);
  for (std::size_t s = 0; s < params.services; ++s) {
    const std::string service_name = std::string("s").append(std::to_string(s));
    const core::ServiceId service = catalog.add_service(service_name);
    for (std::size_t p = 0; p < params.products_per_service; ++p) {
      products_of_service[s].push_back(catalog.add_product(
          service, std::string(service_name).append("p").append(std::to_string(p))));
    }
    // Sparse random similarity structure, mirroring how real product
    // families look: some pairs share lineage, most share nothing.
    const auto& ids = products_of_service[s];
    for (std::size_t a = 0; a < ids.size(); ++a) {
      for (std::size_t b = a + 1; b < ids.size(); ++b) {
        if (rng.bernoulli(params.similar_pair_fraction)) {
          catalog.set_similarity(ids[a], ids[b], rng.uniform() * params.max_similarity);
        }
      }
    }
  }

  const graph::Graph topology =
      graph::random_network(params.hosts, params.average_degree, rng);

  instance.network = std::make_unique<core::Network>(catalog);
  core::Network& network = *instance.network;
  for (std::size_t h = 0; h < params.hosts; ++h) {
    const core::HostId host = network.add_host(std::string("h").append(std::to_string(h)));
    for (std::size_t s = 0; s < params.services; ++s) {
      network.add_service(host, static_cast<core::ServiceId>(s), products_of_service[s]);
    }
  }
  for (const graph::Edge& edge : topology.edges()) {
    network.add_link(edge.u, edge.v);
  }
  return instance;
}

}  // namespace icsdiv::runner
