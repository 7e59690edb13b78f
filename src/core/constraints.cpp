#include "core/constraints.hpp"

#include <algorithm>

namespace icsdiv::core {

void ConstraintSet::fix(HostId host, ServiceId service, ProductId product) {
  require(host != kAllHosts, "ConstraintSet::fix", "fixed assignments target a specific host");
  const std::uint64_t slot = (static_cast<std::uint64_t>(host) << 32) | service;
  require(!fixed_slots_.contains(slot), "ConstraintSet::fix", "service already fixed on this host");
  fixed_.push_back(FixedAssignment{host, service, product});
  fixed_slots_.insert(slot);
}

void ConstraintSet::add(PairConstraint constraint) {
  require(constraint.trigger_service != constraint.partner_service, "ConstraintSet::add",
          "pair constraints relate two distinct services");
  pairs_.push_back(constraint);
}

void ConstraintSet::validate(const Network& network) const {
  const ProductCatalog& catalog = network.catalog();

  for (const FixedAssignment& fixed : fixed_) {
    require(fixed.host < network.host_count(), "ConstraintSet::validate", "unknown host");
    require(catalog.product(fixed.product).service == fixed.service, "ConstraintSet::validate",
            "fixed product does not provide the declared service");
    const auto slot = network.service_slot(fixed.host, fixed.service);
    require(slot.has_value(), "ConstraintSet::validate",
            "host '" + network.host_name(fixed.host) + "' does not run the fixed service");
    const auto& candidates = network.services_of(fixed.host)[*slot].candidates;
    require(std::find(candidates.begin(), candidates.end(), fixed.product) != candidates.end(),
            "ConstraintSet::validate",
            "fixed product is not a candidate on host '" + network.host_name(fixed.host) + "'");
  }

  for (const PairConstraint& pair : pairs_) {
    require(catalog.product(pair.trigger_product).service == pair.trigger_service,
            "ConstraintSet::validate", "trigger product does not provide the trigger service");
    require(catalog.product(pair.partner_product).service == pair.partner_service,
            "ConstraintSet::validate", "partner product does not provide the partner service");
    if (pair.host != kAllHosts) {
      require(pair.host < network.host_count(), "ConstraintSet::validate", "unknown host");
      require(network.host_runs(pair.host, pair.trigger_service), "ConstraintSet::validate",
              "host does not run the trigger service");
      require(network.host_runs(pair.host, pair.partner_service), "ConstraintSet::validate",
              "host does not run the partner service");
    }
  }
}

namespace {

/// Applies `check` to every host a (possibly global) constraint covers that
/// actually runs both of its services.
template <typename Check>
void for_each_applicable_host(const Network& network, const PairConstraint& pair, Check&& check) {
  const auto applies = [&](HostId host) {
    return network.host_runs(host, pair.trigger_service) &&
           network.host_runs(host, pair.partner_service);
  };
  if (pair.host != kAllHosts) {
    if (applies(pair.host)) check(pair.host);
    return;
  }
  for (HostId host = 0; host < network.host_count(); ++host) {
    if (applies(host)) check(host);
  }
}

}  // namespace

std::vector<std::string> ConstraintSet::violations(const Assignment& assignment) const {
  std::vector<std::string> out;
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();

  for (const FixedAssignment& fixed : fixed_) {
    const auto product = assignment.product_of(fixed.host, fixed.service);
    if (!product || *product != fixed.product) {
      out.push_back("host '" + network.host_name(fixed.host) + "' must run '" +
                    catalog.product(fixed.product).name + "' for service '" +
                    catalog.service(fixed.service).name + "'");
    }
  }

  for (const PairConstraint& pair : pairs_) {
    for_each_applicable_host(network, pair, [&](HostId host) {
      const auto trigger = assignment.product_of(host, pair.trigger_service);
      if (!trigger || *trigger != pair.trigger_product) return;
      const auto partner = assignment.product_of(host, pair.partner_service);
      const bool is_partner = partner && *partner == pair.partner_product;
      const bool violated = pair.polarity == ConstraintPolarity::Forbid ? is_partner : !is_partner;
      if (violated) {
        const char* verb = pair.polarity == ConstraintPolarity::Forbid ? "avoid" : "use";
        out.push_back("host '" + network.host_name(host) + "' running '" +
                      catalog.product(pair.trigger_product).name + "' must " + verb + " '" +
                      catalog.product(pair.partner_product).name + "'");
      }
    });
  }
  return out;
}

bool ConstraintSet::satisfied_by(const Assignment& assignment) const {
  return violations(assignment).empty();
}

}  // namespace icsdiv::core
