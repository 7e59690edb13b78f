// Sequential tree-reweighted message passing (TRW-S).
//
// The paper optimises its MRF with TRW-S [Kolmogorov, PAMI 2006/2015]: a
// convergent variant of tree-reweighted message passing that processes
// variables in a fixed "monotonic chain" order, alternating forward and
// backward sweeps.  Compared to loopy BP it is guaranteed not to decrease
// its dual lower bound, and on the (non-submodular, multi-label) energies
// arising here it consistently reaches (near-)optimal assignments — the
// tests cross-check against brute force on small instances.
//
// Implementation follows the efficient single-message formulation of the
// TRW-S paper: one message per directed edge, node weights
// γ_i = 1 / max(#earlier-neighbours, #later-neighbours), messages
// normalised to min 0.  The dual lower bound is evaluated from the
// message reparameterisation
//   LB = Σ_i min_x θ̂_i(x) + Σ_e min_{x,y} θ̂_e(x, y)
// which is a valid bound for *any* message state (the reparameterised
// energy is identical to the original), so reported bounds are always
// sound even mid-convergence.
#pragma once

#include "mrf/solver.hpp"

namespace icsdiv::mrf {

class TrwsSolver final : public Solver {
 public:
  using Solver::solve;

  [[nodiscard]] std::string name() const override { return "trws"; }
  [[nodiscard]] SolveResult solve(const Mrf& mrf, const SolveOptions& options) const override;
  [[nodiscard]] SolveResult solve_compiled(const CompiledMrf& compiled,
                                           const SolveOptions& options) const override;
};

}  // namespace icsdiv::mrf
