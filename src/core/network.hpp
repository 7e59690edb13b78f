// The network model of Def. 2: N = ⟨H, L, S, P⟩.
//
// Hosts are named vertices of an undirected topology (links L); each host
// runs a subset of the catalog's services (S_hi ∈ 2^S), and each service
// instance carries its own candidate-product range p(s_j) — the paper's
// key flexibility requirement ("each host can have a customized range of
// services, and each service can have various ranges of products").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/product.hpp"
#include "graph/graph.hpp"
#include "support/name_index.hpp"

namespace icsdiv::core {

using HostId = graph::VertexId;

/// One service running on a host with its candidate products.
struct ServiceInstance {
  ServiceId service;
  std::vector<ProductId> candidates;  ///< non-empty; all providing `service`
};

class Network {
 public:
  /// The catalog must outlive the network (it defines S and P).
  explicit Network(const ProductCatalog& catalog) : catalog_(&catalog) {}

  HostId add_host(std::string name);
  [[nodiscard]] std::size_t host_count() const noexcept { return host_names_.size(); }
  [[nodiscard]] const std::string& host_name(HostId host) const;
  [[nodiscard]] std::optional<HostId> find_host(std::string_view name) const noexcept;
  [[nodiscard]] HostId host_id(std::string_view name) const;

  /// Adds an undirected link (idempotent; returns whether it was new).
  bool add_link(HostId a, HostId b);
  [[nodiscard]] const graph::Graph& topology() const noexcept { return topology_; }

  /// Declares that `host` runs `service`, choosing among `candidates`.
  /// A host runs each service at most once; candidates must be non-empty
  /// and all provide `service`.
  void add_service(HostId host, ServiceId service, std::vector<ProductId> candidates);

  /// Convenience: candidates by product name.
  void add_service(HostId host, ServiceId service, std::span<const std::string_view> names);

  [[nodiscard]] std::span<const ServiceInstance> services_of(HostId host) const;

  /// Index of `service` within services_of(host), if the host runs it.
  [[nodiscard]] std::optional<std::size_t> service_slot(HostId host,
                                                        ServiceId service) const noexcept;

  [[nodiscard]] bool host_runs(HostId host, ServiceId service) const noexcept {
    return service_slot(host, service).has_value();
  }

  [[nodiscard]] const ProductCatalog& catalog() const noexcept { return *catalog_; }

  /// Total number of (host, service) instances — the MRF's variable count.
  [[nodiscard]] std::size_t instance_count() const noexcept;

 private:
  [[nodiscard]] auto host_key() const noexcept {
    return [this](std::uint32_t id) -> const std::string& { return host_names_[id]; };
  }

  const ProductCatalog* catalog_;
  std::vector<std::string> host_names_;
  support::NameIndex host_index_;  ///< host name → HostId
  std::vector<std::vector<ServiceInstance>> services_;
  graph::Graph topology_;
};

}  // namespace icsdiv::core
