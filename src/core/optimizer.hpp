// Optimizer facade (Def. 5): computes α̂ / α̂_C for a network.
//
// Wraps problem compilation, solver selection, component decomposition and
// decoding behind one call.  The default configuration is the paper's:
// TRW-S over the per-service decomposition, solved in parallel.
#pragma once

#include <memory>
#include <string>

#include "core/problem.hpp"
#include "mrf/solver.hpp"

namespace icsdiv::core {

struct OptimizeOptions {
  /// Solver name resolved through mrf::SolverRegistry ("trws" is the
  /// paper's choice; "icm" and "exhaustive" ship too).
  std::string solver = "trws";
  mrf::SolveOptions solve;
  ProblemOptions problem;
  /// Independent MRF components (one per service without intra-host
  /// constraints) are always solved separately — exact, and the paper's
  /// parallel scaling; `parallel` solves them concurrently.
  bool parallel = true;
};

struct OptimizeOutcome {
  Assignment assignment;
  mrf::SolveResult solve;
  /// Σ pairwise similarity over links (Eq. 3 component of the energy).
  double pairwise_similarity = 0.0;
  /// True when the returned assignment satisfies every constraint.
  bool constraints_satisfied = false;
};

class Optimizer {
 public:
  /// The network must outlive the optimizer (a pointer is kept).
  explicit Optimizer(const Network& network) : network_(&network) {}

  /// Shared-ownership variant for long-lived engine artifacts: the
  /// optimizer co-owns the network instead of borrowing it.
  explicit Optimizer(std::shared_ptr<const Network> network)
      : network_((require(network != nullptr, "Optimizer", "network must not be null"),
                  network.get())),
        network_owner_(std::move(network)) {}

  /// Computes the (constrained) optimal assignment α̂ / α̂_C.
  [[nodiscard]] OptimizeOutcome optimize(const ConstraintSet& constraints = {},
                                         const OptimizeOptions& options = {}) const;

  /// Optimizes an already-built problem (exposes the MRF for inspection).
  [[nodiscard]] OptimizeOutcome optimize_problem(const DiversificationProblem& problem,
                                                 const OptimizeOptions& options = {}) const;

 private:
  const Network* network_;
  std::shared_ptr<const Network> network_owner_;  ///< keepalive; may be null
};

}  // namespace icsdiv::core
