#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

namespace {

/// How many hosts run each product of each service, indexed like
/// catalog.products_of(service), read from one SharedServices table.  A
/// service no host runs, or one with no products, gets no counts.
std::vector<std::vector<std::size_t>> product_counts(const Assignment& assignment) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  const SharedServices shared(assignment);
  std::vector<std::vector<std::size_t>> counts(catalog.service_count());
  for (HostId host = 0; host < network.host_count(); ++host) {
    for (const ServiceInstance& instance : network.services_of(host)) {
      std::vector<std::size_t>& service_counts = counts[instance.service];
      if (service_counts.empty()) {
        service_counts.assign(catalog.products_of(instance.service).size(), 0);
      }
      if (const auto position = shared.product_position(host, instance.service)) {
        ++service_counts[*position];
      }
    }
  }
  return counts;
}

/// Positions into catalog.products_of(service), in product-name order: the
/// order a name-keyed histogram visits them.
std::vector<std::size_t> name_order(const ProductCatalog& catalog, ServiceId service) {
  const std::vector<ProductId>& products = catalog.products_of(service);
  std::vector<std::size_t> order(products.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return catalog.product(products[a]).name < catalog.product(products[b]).name;
  });
  return order;
}

/// exp(−Σ p_i ln p_i) over one service's counts.  The terms are summed in
/// product-name order, so every bit matches a sum over a name-keyed map.
double richness_of(const ProductCatalog& catalog, ServiceId service,
                   const std::vector<std::size_t>& counts) {
  if (counts.empty()) return 0.0;
  const std::vector<std::size_t> order = name_order(catalog, service);
  double total = 0.0;
  for (const std::size_t i : order) total += static_cast<double>(counts[i]);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (const std::size_t i : order) {
    if (counts[i] == 0) continue;
    const double p = static_cast<double>(counts[i]) / total;
    entropy -= p * std::log(p);
  }
  return std::exp(entropy);
}

}  // namespace

std::map<std::string, std::size_t> product_histogram(const Assignment& assignment,
                                                     ServiceId service) {
  const ProductCatalog& catalog = assignment.network().catalog();
  const std::vector<std::vector<std::size_t>> all = product_counts(assignment);
  const std::vector<std::size_t>& counts = all[service];
  std::map<std::string, std::size_t> histogram;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) histogram[catalog.product(catalog.products_of(service)[i]).name] = counts[i];
  }
  return histogram;
}

double effective_richness(const Assignment& assignment, ServiceId service) {
  return richness_of(assignment.network().catalog(), service, product_counts(assignment)[service]);
}

double normalized_effective_richness(const Assignment& assignment) {
  const ProductCatalog& catalog = assignment.network().catalog();
  const std::vector<std::vector<std::size_t>> counts = product_counts(assignment);
  double sum = 0.0;
  std::size_t services_seen = 0;
  for (ServiceId service = 0; service < catalog.service_count(); ++service) {
    if (counts[service].empty()) continue;
    sum += richness_of(catalog, service, counts[service]) /
           static_cast<double>(counts[service].size());
    ++services_seen;
  }
  return services_seen == 0 ? 0.0 : sum / static_cast<double>(services_seen);
}

}  // namespace icsdiv::core
