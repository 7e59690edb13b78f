#include "core/assignment.hpp"

#include <algorithm>

namespace icsdiv::core {

Assignment::Assignment(const Network& network) : network_(&network) {
  slots_.resize(network.host_count());
  for (HostId host = 0; host < network.host_count(); ++host) {
    slots_[host].assign(network.services_of(host).size(), kUnassigned);
  }
}

void Assignment::assign(HostId host, ServiceId service, ProductId product) {
  require(host < slots_.size(), "Assignment::assign", "unknown host id");
  const auto slot = network_->service_slot(host, service);
  if (!slot) {
    throw NotFound("Assignment::assign: host '" + network_->host_name(host) +
                   "' does not run service '" + network_->catalog().service(service).name + "'");
  }
  const ServiceInstance& instance = network_->services_of(host)[*slot];
  const bool candidate =
      std::find(instance.candidates.begin(), instance.candidates.end(), product) !=
      instance.candidates.end();
  require(candidate, "Assignment::assign",
          "product '" + network_->catalog().product(product).name +
              "' is not a candidate on host '" + network_->host_name(host) + "'");
  slots_[host][*slot] = product;
}

std::optional<ProductId> Assignment::product_of(HostId host, ServiceId service) const {
  require(host < slots_.size(), "Assignment::product_of", "unknown host id");
  const auto slot = network_->service_slot(host, service);
  if (!slot) {
    throw NotFound("Assignment::product_of: host '" + network_->host_name(host) +
                   "' does not run service '" + network_->catalog().service(service).name + "'");
  }
  const ProductId product = slots_[host][*slot];
  if (product == kUnassigned) return std::nullopt;
  return product;
}

bool Assignment::complete() const noexcept {
  for (const auto& host_slots : slots_) {
    for (ProductId product : host_slots) {
      if (product == kUnassigned) return false;
    }
  }
  return true;
}

void Assignment::validate() const {
  for (HostId host = 0; host < slots_.size(); ++host) {
    const auto services = network_->services_of(host);
    ensure(services.size() == slots_[host].size(), "Assignment::validate",
           "network shape changed under the assignment");
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      const ProductId product = slots_[host][slot];
      require(product != kUnassigned, "Assignment::validate",
              "unassigned service on host '" + network_->host_name(host) + "'");
      const auto& candidates = services[slot].candidates;
      require(std::find(candidates.begin(), candidates.end(), product) != candidates.end(),
              "Assignment::validate", "assigned product is not a candidate");
    }
  }
}

std::string Assignment::to_string() const {
  std::string out;
  const ProductCatalog& catalog = network_->catalog();
  for (HostId host = 0; host < slots_.size(); ++host) {
    out += network_->host_name(host);
    out += ':';
    const auto services = network_->services_of(host);
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      out += ' ';
      out += catalog.service(services[slot].service).name;
      out += '=';
      const ProductId product = slots_[host][slot];
      out += product == kUnassigned ? std::string("?") : catalog.product(product).name;
    }
    out += '\n';
  }
  return out;
}

support::Json Assignment::to_json() const {
  const ProductCatalog& catalog = network_->catalog();
  support::JsonObject hosts;
  for (HostId host = 0; host < slots_.size(); ++host) {
    support::JsonObject services;
    const auto instances = network_->services_of(host);
    for (std::size_t slot = 0; slot < instances.size(); ++slot) {
      const ProductId product = slots_[host][slot];
      services.set(catalog.service(instances[slot].service).name,
                   product == kUnassigned ? support::Json(nullptr)
                                          : support::Json(catalog.product(product).name));
    }
    hosts.set(network_->host_name(host), support::Json(std::move(services)));
  }
  support::JsonObject root;
  root.set("assignment", support::Json(std::move(hosts)));
  return support::Json(std::move(root));
}

Assignment Assignment::from_json(const Network& network, const support::Json& json) {
  Assignment assignment(network);
  const auto& hosts = json.as_object().at("assignment").as_object();
  const ProductCatalog& catalog = network.catalog();
  for (const auto& [host_name, services] : hosts) {
    const HostId host = network.host_id(host_name);
    for (const auto& [service_name, product] : services.as_object()) {
      if (product.is_null()) continue;
      const ServiceId service = catalog.service_id(service_name);
      assignment.assign(host, service, catalog.product_id(service, product.as_string()));
    }
  }
  return assignment;
}

}  // namespace icsdiv::core
