#include "core/upgrade.hpp"

#include <algorithm>

namespace icsdiv::core {

namespace {

/// The greedy loop stops once the best single-host step gains less.
constexpr double kMinGain = 1e-9;

/// All (host, slot) products of `assignment` for one host.
std::vector<ProductId> host_products(const Network& network, const Assignment& assignment,
                                     HostId host) {
  std::vector<ProductId> out;
  for (const ServiceInstance& instance : network.services_of(host)) {
    out.push_back(assignment.product_of(host, instance.service).value());
  }
  return out;
}

/// Local Eq. 1 cost of running `tuple` on `host`: unary constants cancel
/// across tuples, so only the pairwise similarity to the current neighbour
/// products matters.
double local_cost(const Network& network, const Assignment& assignment, HostId host,
                  const std::vector<ProductId>& tuple) {
  const ProductCatalog& catalog = network.catalog();
  double cost = 0.0;
  const auto services = network.services_of(host);
  for (std::size_t slot = 0; slot < services.size(); ++slot) {
    for (const graph::VertexId neighbor : network.topology().neighbors(host)) {
      if (!network.host_runs(neighbor, services[slot].service)) continue;
      const auto neighbor_product = assignment.product_of(neighbor, services[slot].service);
      if (neighbor_product) cost += catalog.similarity(tuple[slot], *neighbor_product);
    }
  }
  return cost;
}

/// Whether `tuple` on `host` satisfies every applicable pair constraint.
bool tuple_satisfies_pairs(const Network& network, const ConstraintSet& constraints, HostId host,
                           const std::vector<ProductId>& tuple) {
  const auto services = network.services_of(host);
  const auto slot_of = [&](ServiceId service) -> std::optional<std::size_t> {
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      if (services[slot].service == service) return slot;
    }
    return std::nullopt;
  };
  for (const PairConstraint& pair : constraints.pairs()) {
    if (pair.host != kAllHosts && pair.host != host) continue;
    const auto trigger_slot = slot_of(pair.trigger_service);
    const auto partner_slot = slot_of(pair.partner_service);
    if (!trigger_slot || !partner_slot) continue;
    if (tuple[*trigger_slot] != pair.trigger_product) continue;
    const bool is_partner = tuple[*partner_slot] == pair.partner_product;
    if (pair.polarity == ConstraintPolarity::Forbid ? is_partner : !is_partner) return false;
  }
  return true;
}

}  // namespace

UpgradePlan plan_upgrade(const Network& network, const Assignment& current,
                         const ConstraintSet& constraints, const UpgradePlanOptions& options) {
  current.validate();
  constraints.validate(network);
  require(&current.network() == &network, "plan_upgrade",
          "assignment belongs to a different network");

  // Energy bookkeeping via the *unconstrained* problem compiler: the start
  // assignment may still violate constraints (that is why the operator is
  // upgrading), and constraint handling happens in candidate enumeration.
  const DiversificationProblem problem(network);

  UpgradePlan plan{.steps = {}, .result = current, .initial_energy = 0.0, .final_energy = 0.0};
  plan.initial_energy = problem.energy_of(current);

  // Per-host candidate tuples (fixed constraints collapse slots to one).
  const auto candidate_tuples = [&](HostId host) {
    std::vector<std::vector<ProductId>> per_slot;
    const auto services = network.services_of(host);
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      std::vector<ProductId> candidates = services[slot].candidates;
      for (const FixedAssignment& fixed : constraints.fixed()) {
        if (fixed.host == host && fixed.service == services[slot].service) {
          candidates.assign(1, fixed.product);
        }
      }
      per_slot.push_back(std::move(candidates));
    }
    // Odometer over the cartesian product.
    std::vector<std::vector<ProductId>> tuples;
    std::vector<std::size_t> index(per_slot.size(), 0);
    if (per_slot.empty()) return tuples;
    while (true) {
      std::vector<ProductId> tuple(per_slot.size());
      for (std::size_t s = 0; s < per_slot.size(); ++s) tuple[s] = per_slot[s][index[s]];
      if (tuple_satisfies_pairs(network, constraints, host, tuple)) {
        tuples.push_back(std::move(tuple));
      }
      std::size_t position = 0;
      while (position < per_slot.size()) {
        if (++index[position] < per_slot[position].size()) break;
        index[position] = 0;
        ++position;
      }
      if (position == per_slot.size()) break;
    }
    if (tuples.empty()) {
      throw Infeasible("plan_upgrade: constraints leave host '" + network.host_name(host) +
                       "' with no feasible product tuple");
    }
    return tuples;
  };

  const std::size_t budget =
      options.budget == 0 ? network.host_count() : options.budget;

  while (plan.steps.size() < budget) {
    double best_gain = kMinGain;
    HostId best_host = 0;
    std::vector<ProductId> best_tuple;

    for (HostId host = 0; host < network.host_count(); ++host) {
      if (network.services_of(host).empty()) continue;
      const std::vector<ProductId> current_tuple = host_products(network, plan.result, host);
      const double current_cost = local_cost(network, plan.result, host, current_tuple);
      for (const std::vector<ProductId>& tuple : candidate_tuples(host)) {
        if (tuple == current_tuple) continue;
        const double gain = current_cost - local_cost(network, plan.result, host, tuple);
        if (gain > best_gain) {
          best_gain = gain;
          best_host = host;
          best_tuple = tuple;
        }
      }
    }
    if (best_tuple.empty()) break;  // no improving host left

    UpgradeStep step;
    step.host = best_host;
    step.before = host_products(network, plan.result, best_host);
    step.after = best_tuple;
    step.energy_gain = best_gain;
    const auto services = network.services_of(best_host);
    for (std::size_t slot = 0; slot < services.size(); ++slot) {
      plan.result.assign(best_host, services[slot].service, best_tuple[slot]);
    }
    plan.steps.push_back(std::move(step));
  }

  plan.final_energy = problem.energy_of(plan.result);
  return plan;
}

}  // namespace icsdiv::core
