#include "core/metrics.hpp"

#include <cmath>

namespace icsdiv::core {

SharedServices::SharedServices(const Assignment& assignment)
    : network_(&assignment.network()),
      host_count_(network_->host_count()),
      service_count_(network_->catalog().service_count()) {
  const ProductCatalog& catalog = network_->catalog();
  std::vector<std::uint32_t> position(catalog.product_count(), kNone);
  blocks_.reserve(service_count_);
  for (ServiceId service = 0; service < service_count_; ++service) {
    const std::vector<ProductId>& products = catalog.products_of(service);
    blocks_.push_back(Block{similarity_.size(), products.size()});
    for (std::size_t i = 0; i < products.size(); ++i) {
      position[products[i]] = static_cast<std::uint32_t>(i);
      for (const ProductId other : products) {
        similarity_.push_back(catalog.similarity(products[i], other));
      }
    }
  }

  require(assignment.slots_.size() == host_count_, "SharedServices",
          "network shape changed under the assignment");
  product_index_.assign(host_count_ * service_count_, kNone);
  for (HostId host = 0; host < host_count_; ++host) {
    const auto services = network_->services_of(host);
    const std::vector<ProductId>& slots = assignment.slots_[host];
    require(slots.size() == services.size(), "SharedServices",
            "network shape changed under the assignment");
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot] == Assignment::kUnassigned) continue;
      product_index_[std::size_t{host} * service_count_ + services[slot].service] =
          position[slots[slot]];
    }
  }
}

double total_edge_similarity(const Assignment& assignment) {
  const SharedServices shared(assignment);
  double total = 0.0;
  for (const graph::Edge& link : assignment.network().topology().edges()) {
    shared.for_each(link.u, link.v, [&](double similarity, bool) { total += similarity; });
  }
  return total;
}

double average_edge_similarity(const Assignment& assignment) {
  const SharedServices shared(assignment);
  double total = 0.0;
  std::size_t terms = 0;
  for (const graph::Edge& link : assignment.network().topology().edges()) {
    shared.for_each(link.u, link.v, [&](double similarity, bool) {
      total += similarity;
      ++terms;
    });
  }
  return terms == 0 ? 0.0 : total / static_cast<double>(terms);
}

double identical_neighbor_ratio(const Assignment& assignment) {
  const SharedServices shared(assignment);
  std::size_t links_with_identical = 0;
  std::size_t links_considered = 0;
  for (const graph::Edge& link : assignment.network().topology().edges()) {
    bool any_shared = false;
    bool any_identical = false;
    shared.for_each(link.u, link.v, [&](double, bool same_product) {
      any_shared = true;
      any_identical = any_identical || same_product;
    });
    if (any_shared) {
      ++links_considered;
      if (any_identical) ++links_with_identical;
    }
  }
  return links_considered == 0
             ? 0.0
             : static_cast<double>(links_with_identical) / static_cast<double>(links_considered);
}

std::map<std::string, std::size_t> product_histogram(const Assignment& assignment,
                                                     ServiceId service) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  std::map<std::string, std::size_t> histogram;
  for (HostId host = 0; host < network.host_count(); ++host) {
    if (!network.host_runs(host, service)) continue;
    if (const auto product = assignment.product_of(host, service)) {
      histogram[catalog.product(*product).name] += 1;
    }
  }
  return histogram;
}

double effective_richness(const Assignment& assignment, ServiceId service) {
  const auto histogram = product_histogram(assignment, service);
  double total = 0.0;
  for (const auto& [name, count] : histogram) total += static_cast<double>(count);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (const auto& [name, count] : histogram) {
    const double p = static_cast<double>(count) / total;
    entropy -= p * std::log(p);
  }
  return std::exp(entropy);
}

double normalized_effective_richness(const Assignment& assignment) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  double sum = 0.0;
  std::size_t services_seen = 0;
  for (ServiceId service = 0; service < catalog.service_count(); ++service) {
    const auto& available = catalog.products_of(service);
    if (available.empty()) continue;
    bool in_use = false;
    for (HostId host = 0; host < network.host_count() && !in_use; ++host) {
      in_use = network.host_runs(host, service);
    }
    if (!in_use) continue;
    sum += effective_richness(assignment, service) / static_cast<double>(available.size());
    ++services_seen;
  }
  return services_seen == 0 ? 0.0 : sum / static_cast<double>(services_seen);
}

}  // namespace icsdiv::core
