// Human-readable diversification reports.
//
// Renders what a system operator reviews before signing off a deployment
// plan: per-service product distributions, the riskiest links (highest
// residual similarity) and constraint compliance.
#pragma once

#include <string>

#include "core/assignment.hpp"
#include "core/constraints.hpp"

namespace icsdiv::core {

/// Renders a report for one assignment (optionally checking `constraints`):
/// the five riskiest links, then the full per-host listing.
[[nodiscard]] std::string diversification_report(const Assignment& assignment,
                                                 const ConstraintSet& constraints = {});

}  // namespace icsdiv::core
