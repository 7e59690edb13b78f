// Iterated Conditional Modes: greedy coordinate descent over labels.
//
// A classic baseline for MRF energy minimisation — fast, monotone, but
// easily stuck in local minima.  The grids, the benches and bench A1 run
// it beside TRW-S as the baseline.
#pragma once

#include "mrf/solver.hpp"

namespace icsdiv::mrf {

class IcmSolver final : public Solver {
 public:
  using Solver::solve;

  [[nodiscard]] std::string name() const override { return "icm"; }
  [[nodiscard]] SolveResult solve(const Mrf& mrf, const SolveOptions& options) const override;
  [[nodiscard]] SolveResult solve_compiled(const CompiledMrf& compiled,
                                           const SolveOptions& options) const override;
};

}  // namespace icsdiv::mrf
