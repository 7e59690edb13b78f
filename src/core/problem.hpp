// Compilation of the diversification problem into a discrete MRF (§V).
//
// One MRF variable per (host, service) slot; its labels are the slot's
// candidate products after applying fixed-host constraints.  Unary costs
// realise Eq. 2 (a constant preference Pr_const, refined by constraints);
// pairwise costs realise Eq. 3 (the similarity of same-service products on
// linked hosts).  Equal label ranges are interned once, and similarity
// matrices are shared across edges with equal pairs of ranges, so model
// size is dominated by topology, not |P|².  The build is linear in hosts,
// links and fixed assignments.
//
// Pair constraints support two encodings, ablated in bench A2:
//  * IntraHostPairwise (default, exact): an extra pairwise factor between
//    the two services on each applicable host, kForbidden on the banned
//    combinations.
//  * ConditionalUnary (the paper's §V-A scheme): exact when the trigger
//    service is pinned to the trigger product (the common case in the case
//    study, where constrained hosts are also fixed); otherwise a soft
//    penalty on the trigger/partner labels — cheaper but approximate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/constraints.hpp"
#include "mrf/model.hpp"

namespace icsdiv::core {

enum class ConstraintEncoding { IntraHostPairwise, ConditionalUnary };

struct ProblemOptions {
  ConstraintEncoding encoding = ConstraintEncoding::IntraHostPairwise;
};

class DiversificationProblem {
 public:
  /// Validates the constraints against the network and builds the MRF.
  /// Throws Infeasible when a fixed assignment empties a label set.  The
  /// network must outlive the problem (the problem keeps a pointer).
  DiversificationProblem(const Network& network, ConstraintSet constraints = {},
                         ProblemOptions options = {});

  /// Shared-ownership variant for cached problem artifacts: the problem
  /// co-owns the network, so it stays valid after the creating scope ends
  /// (the batch engine's problem stage hands these out across cells).
  DiversificationProblem(std::shared_ptr<const Network> network, ConstraintSet constraints = {},
                         ProblemOptions options = {});

  [[nodiscard]] const mrf::Mrf& mrf() const noexcept { return mrf_; }
  [[nodiscard]] const Network& network() const noexcept { return *network_; }
  [[nodiscard]] const ConstraintSet& constraints() const noexcept { return constraints_; }

  [[nodiscard]] std::size_t variable_count() const noexcept { return mrf_.variable_count(); }

  /// MRF variable of a (host, slot) pair; slots index Network::services_of.
  [[nodiscard]] mrf::VariableId variable_of(HostId host, std::size_t slot) const;

  /// Candidate products of a variable (label → product).
  [[nodiscard]] std::span<const ProductId> labels_of(mrf::VariableId variable) const;

  /// True when pair constraints created intra-host factors, i.e. the MRF
  /// does NOT decompose exactly into one component per service.
  [[nodiscard]] bool has_intra_host_edges() const noexcept { return intra_host_edges_ > 0; }

  /// Converts an MRF labeling into an Assignment (and vice versa).
  [[nodiscard]] Assignment decode(std::span<const mrf::Label> labels) const;
  [[nodiscard]] std::vector<mrf::Label> encode(const Assignment& assignment) const;

  /// Eq. 1 energy of a complete assignment under this problem's costs.
  [[nodiscard]] mrf::Cost energy_of(const Assignment& assignment) const;

 private:
  void build_variables();
  void build_service_edges();
  void build_constraint_factors();

  [[nodiscard]] const std::vector<ProductId>& label_products(mrf::VariableId variable) const {
    return ranges_[range_of_[variable]];
  }

  const Network* network_;
  /// Keepalive for the shared-ownership constructor; null when the caller
  /// guarantees the network's lifetime externally (the reference ctor).
  std::shared_ptr<const Network> network_owner_;
  ConstraintSet constraints_;
  ProblemOptions options_;
  mrf::Mrf mrf_;

  /// Variables are numbered host-major, so (host, slot) is variable
  /// first_variable_[host] + slot; host_count + 1 entries.
  std::vector<mrf::VariableId> first_variable_;
  /// Distinct label ranges, interned once; range_of_[variable] indexes
  /// ranges_, whose entries map label → product.
  std::vector<std::vector<ProductId>> ranges_;
  std::vector<std::uint32_t> range_of_;
  std::vector<std::pair<HostId, std::size_t>> slot_of_variable_;
  std::size_t intra_host_edges_ = 0;
};

}  // namespace icsdiv::core
