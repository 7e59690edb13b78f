#include "core/network.hpp"

#include <algorithm>

namespace icsdiv::core {

HostId Network::add_host(std::string name) {
  require(!name.empty(), "Network::add_host", "host name must not be empty");
  require(!find_host(name).has_value(), "Network::add_host", "duplicate host name: " + name);
  const HostId id = topology_.add_vertices(1);
  host_names_.push_back(std::move(name));
  services_.emplace_back();
  host_index_.insert(id, host_key());
  return id;
}

const std::string& Network::host_name(HostId host) const {
  require(host < host_names_.size(), "Network::host_name", "unknown host id");
  return host_names_[host];
}

std::optional<HostId> Network::find_host(std::string_view name) const noexcept {
  const std::uint32_t id = host_index_.find(name, host_key());
  if (id == support::NameIndex::kAbsent) return std::nullopt;
  return static_cast<HostId>(id);
}

HostId Network::host_id(std::string_view name) const {
  if (auto id = find_host(name)) return *id;
  throw NotFound("Network: unknown host '" + std::string(name) + "'");
}

bool Network::add_link(HostId a, HostId b) { return topology_.add_edge_if_absent(a, b); }

void Network::add_service(HostId host, ServiceId service, std::vector<ProductId> candidates) {
  require(host < host_names_.size(), "Network::add_service", "unknown host id");
  require(!candidates.empty(), "Network::add_service",
          "a service needs at least one candidate product");
  require(!host_runs(host, service), "Network::add_service",
          "host already runs this service: " + host_names_[host]);
  for (ProductId candidate : candidates) {
    require(catalog_->product(candidate).service == service, "Network::add_service",
            "candidate product does not provide the declared service");
  }
  // Duplicate candidates would create duplicate MRF labels.
  std::vector<ProductId> sorted = candidates;
  std::sort(sorted.begin(), sorted.end());
  require(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
          "Network::add_service", "candidate list contains duplicates");
  services_[host].push_back(ServiceInstance{service, std::move(candidates)});
}

void Network::add_service(HostId host, ServiceId service,
                          std::span<const std::string_view> names) {
  std::vector<ProductId> candidates;
  candidates.reserve(names.size());
  for (std::string_view name : names) {
    candidates.push_back(catalog_->product_id(service, name));
  }
  add_service(host, service, std::move(candidates));
}

std::span<const ServiceInstance> Network::services_of(HostId host) const {
  require(host < host_names_.size(), "Network::services_of", "unknown host id");
  return services_[host];
}

std::optional<std::size_t> Network::service_slot(HostId host, ServiceId service) const noexcept {
  if (host >= services_.size()) return std::nullopt;
  for (std::size_t slot = 0; slot < services_[host].size(); ++slot) {
    if (services_[host][slot].service == service) return slot;
  }
  return std::nullopt;
}

std::size_t Network::instance_count() const noexcept {
  std::size_t total = 0;
  for (const auto& list : services_) total += list.size();
  return total;
}

}  // namespace icsdiv::core
