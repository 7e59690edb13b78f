// Assignment-level diversity metrics.
//
// Complements the BN-based metric of §VI (see bayes/metric.hpp) with the
// structural measures the related work defines: the Eq. 3 pairwise
// similarity mass, per-service product richness (the "effective number of
// distinct resources" behind Zhang et al.'s d1), and mono-culture ratios.
//
// SharedServices is the one per-link walk behind every similarity reading
// of an assignment: these metrics, the report's riskiest links, the d_bn
// edge rates (bayes/propagation.hpp) and the simulator's channel pools
// (sim/compiled.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/assignment.hpp"

namespace icsdiv::core {

/// A dense, immutable view of an assignment for per-link similarity walks:
/// a host-major (host, service) → product-index table, where the index is
/// the product's position in ProductCatalog::products_of(service), and one
/// n×n block of catalog similarities per service in that order.  One pass
/// over the assignment builds it (host_count × service_count u32 entries);
/// a walk then needs no slot scan and no hash lookup.  The network must
/// outlive the view; the assignment need not.
class SharedServices {
 public:
  /// Throws InvalidArgument when the network gained hosts or services
  /// after the assignment was created.
  explicit SharedServices(const Assignment& assignment);

  /// The position of α'(host, service) in catalog.products_of(service), or
  /// nullopt when the host does not run the service or left it unassigned.
  /// Throws InvalidArgument for an unknown host or service.
  [[nodiscard]] std::optional<std::uint32_t> product_position(HostId host,
                                                              ServiceId service) const {
    require(host < host_count_ && service < service_count_, "SharedServices::product_position",
            "unknown host or service id");
    const std::uint32_t index = product_index_[std::size_t{host} * service_count_ + service];
    if (index == kNone) return std::nullopt;
    return index;
  }

  /// Calls visit(similarity, same_product) for each service u runs, in u's
  /// slot order, that v runs too with both slots assigned.  `similarity`
  /// is catalog.similarity(α'(u,s), α'(v,s)), bit for bit.  Throws
  /// InvalidArgument for an unknown host.
  template <typename Visit>
  void for_each(HostId u, HostId v, Visit&& visit) const {
    require(u < host_count_ && v < host_count_, "SharedServices::for_each", "unknown host id");
    const std::uint32_t* const row_u = product_index_.data() + std::size_t{u} * service_count_;
    const std::uint32_t* const row_v = product_index_.data() + std::size_t{v} * service_count_;
    for (const ServiceInstance& instance : network_->services_of(u)) {
      const std::uint32_t a = row_u[instance.service];
      const std::uint32_t b = row_v[instance.service];
      if (a == kNone || b == kNone) continue;
      const Block& block = blocks_[instance.service];
      visit(similarity_[block.offset + std::size_t{a} * block.width + b], a == b);
    }
  }

 private:
  /// The table entry of a service the host does not run or has not assigned.
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// One service's similarity block: width × width values from `offset`.
  struct Block {
    std::size_t offset;
    std::size_t width;
  };

  const Network* network_;
  std::size_t host_count_;
  std::size_t service_count_;
  std::vector<std::uint32_t> product_index_;  ///< [host × service_count + service]
  std::vector<Block> blocks_;                 ///< per service
  std::vector<double> similarity_;            ///< the blocks, row-major, back to back
};

/// Σ over links and shared services of sim(α'(u,s), α'(v,s)) — exactly the
/// pairwise term of Eq. 1 the optimiser minimises.
[[nodiscard]] double total_edge_similarity(const Assignment& assignment);

/// total_edge_similarity divided by the number of (link, shared-service)
/// pairs; in [0, 1], lower is more diverse.
[[nodiscard]] double average_edge_similarity(const Assignment& assignment);

/// Fraction of links whose endpoints share ≥1 identical product.
[[nodiscard]] double identical_neighbor_ratio(const Assignment& assignment);

/// Product usage histogram for one service: product name → host count.
[[nodiscard]] std::map<std::string, std::size_t> product_histogram(const Assignment& assignment,
                                                                   ServiceId service);

/// Shannon-effective number of products in use for `service`:
/// exp(−Σ p_i ln p_i).  Equals the plain count when usage is uniform; 1 for
/// a mono-culture — the "effective richness" notion of Zhang et al. [16].
[[nodiscard]] double effective_richness(const Assignment& assignment, ServiceId service);

/// Effective richness averaged over services, normalised by the number of
/// available products (d1-style network diversity in (0, 1]).
[[nodiscard]] double normalized_effective_richness(const Assignment& assignment);

}  // namespace icsdiv::core
