// Budgeted upgrade planning (§IX: "advise on the best diversification
// strategy for a system operator to decide the most robust way to upgrade
// an existing ICS").
//
// Real plants are not redeployed from scratch: an operator re-images a few
// hosts per maintenance window.  Given the *current* assignment, the
// planner greedily picks, one host at a time, the single-host re-assignment
// with the largest reduction of the Eq. 1 energy (exact per-host
// re-optimisation over the host's candidate tuples, neighbours fixed),
// until the budget is exhausted or no host improves.  Fixed-host
// constraints are never violated; per-host product-combination constraints
// are enforced on the candidate tuples.
//
// This also answers the paper's opening question "(i) how much
// diversification is required to reach an optimal/maximal resilience":
// bench A4 sweeps the budget and shows the diminishing-returns curve
// toward the TRW-S optimum.
#pragma once

#include <vector>

#include "core/constraints.hpp"
#include "core/problem.hpp"

namespace icsdiv::core {

struct UpgradeStep {
  HostId host;
  /// Products per service slot, aligned with Network::services_of(host).
  std::vector<ProductId> before;
  std::vector<ProductId> after;
  double energy_gain = 0.0;  ///< Eq. 1 decrease achieved by this step
};

struct UpgradePlan {
  std::vector<UpgradeStep> steps;
  Assignment result;
  double initial_energy = 0.0;
  double final_energy = 0.0;

  [[nodiscard]] std::size_t hosts_touched() const noexcept { return steps.size(); }
};

struct UpgradePlanOptions {
  std::size_t budget = 0;  ///< max hosts to re-image; 0 = unlimited
};

/// Plans a budgeted upgrade starting from `current` (must be complete and
/// satisfy the fixed constraints).  Throws InvalidArgument on an invalid
/// start, Infeasible when constraints leave a host without any tuple.
[[nodiscard]] UpgradePlan plan_upgrade(const Network& network, const Assignment& current,
                                       const ConstraintSet& constraints = {},
                                       const UpgradePlanOptions& options = {});

}  // namespace icsdiv::core
