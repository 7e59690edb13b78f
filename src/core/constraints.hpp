// Configuration constraints (Def. 4) plus fixed-host requirements.
//
// Two families, mirroring the case study's three practical restrictions:
//
//  * FixedAssignment — "this host must run exactly this product for this
//    service" (legacy OT hosts; company-mandated software).  Encoded by
//    restricting the MRF variable's label set to the single product.
//
//  * PairConstraint — Def. 4's ⟨h, s_m, s_n, +p_j, −p_k⟩ (if s_m is p_j
//    then s_n must NOT be p_k) and ⟨h, s_m, s_n, +p_j, +p_l⟩ (if s_m is
//    p_j then s_n MUST be p_l).  `host == AllHosts` expresses the global
//    form.  Encoded either exactly as an intra-host pairwise factor or
//    approximately in the unary cost (the paper's §V-A scheme; see
//    ConstraintEncoding in problem.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/assignment.hpp"
#include "core/network.hpp"

namespace icsdiv::core {

struct FixedAssignment {
  HostId host;
  ServiceId service;
  ProductId product;
};

enum class ConstraintPolarity {
  Require,  ///< ⟨…, +p_j, +p_l⟩: trigger implies the partner product
  Forbid,   ///< ⟨…, +p_j, −p_k⟩: trigger forbids the partner product
};

/// Sentinel host id expressing a *global* constraint (applies to all hosts
/// running both services).
inline constexpr HostId kAllHosts = static_cast<HostId>(-1);

struct PairConstraint {
  HostId host = kAllHosts;       ///< specific host, or kAllHosts for global
  ServiceId trigger_service;     ///< s_m
  ProductId trigger_product;     ///< p_j (must provide s_m)
  ServiceId partner_service;     ///< s_n
  ProductId partner_product;     ///< p_k / p_l (must provide s_n)
  ConstraintPolarity polarity = ConstraintPolarity::Forbid;
};

class ConstraintSet {
 public:
  ConstraintSet() = default;

  void fix(HostId host, ServiceId service, ProductId product);
  void add(PairConstraint constraint);

  [[nodiscard]] const std::vector<FixedAssignment>& fixed() const noexcept { return fixed_; }
  [[nodiscard]] const std::vector<PairConstraint>& pairs() const noexcept { return pairs_; }
  [[nodiscard]] bool empty() const noexcept { return fixed_.empty() && pairs_.empty(); }

  /// Structural validation against a network: hosts exist and run the
  /// services, fixed products are candidates, products provide the
  /// declared services.  Throws InvalidArgument/NotFound on violations.
  void validate(const Network& network) const;

  /// Checks whether a *complete* assignment satisfies every constraint.
  [[nodiscard]] bool satisfied_by(const Assignment& assignment) const;

  /// Lists human-readable violations (empty when satisfied).
  [[nodiscard]] std::vector<std::string> violations(const Assignment& assignment) const;

 private:
  std::vector<FixedAssignment> fixed_;
  /// (host << 32 | service) of every fixed_ entry, for fix()'s duplicate check.
  std::unordered_set<std::uint64_t> fixed_slots_;
  std::vector<PairConstraint> pairs_;
};

}  // namespace icsdiv::core
