// Human-readable diversification reports.
//
// Renders what a system operator reviews before signing off a deployment
// plan: per-service product distributions, the riskiest links (highest
// residual similarity), constraint compliance, and — when comparing two
// assignments — the per-host change list (the migration work order).
#pragma once

#include <string>

#include "core/assignment.hpp"
#include "core/constraints.hpp"

namespace icsdiv::core {

/// Renders a report for one assignment (optionally checking `constraints`):
/// the five riskiest links, then the full per-host listing.
[[nodiscard]] std::string diversification_report(const Assignment& assignment,
                                                 const ConstraintSet& constraints = {});

/// Renders the migration work order from `current` to `planned`: one line
/// per host whose products change, with the per-service before → after.
[[nodiscard]] std::string migration_report(const Assignment& current,
                                           const Assignment& planned);

}  // namespace icsdiv::core
