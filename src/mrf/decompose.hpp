// Independent-component decomposition of an MRF.
//
// The diversification energy (Eq. 1) couples two variables only when they
// are the same service on connected hosts, or when an intra-host
// configuration constraint ties two services together.  Without intra-host
// constraints the MRF therefore decomposes into one independent subproblem
// per service — the structural fact behind the paper's "parallel
// computation" scaling (§V-C).  This module finds the connected components
// of an arbitrary MRF and solves them independently, optionally across the
// global thread pool.
#pragma once

#include <vector>

#include "mrf/solver.hpp"

namespace icsdiv::mrf {

/// Groups variable ids by connected component (union–find over edges);
/// components are ordered by their smallest variable id.
[[nodiscard]] std::vector<std::vector<VariableId>> mrf_components(const Mrf& mrf);

/// A sub-MRF together with the mapping back to the parent's variable ids.
struct SubProblem {
  Mrf mrf;
  std::vector<VariableId> parent_variable;  ///< sub id → parent id
};

/// Extracts the sub-MRF induced by `variables`, which must list each
/// variable once and be closed under edge adjacency (e.g. a component from
/// mrf_components); throws InvalidArgument otherwise.  One pass over the
/// parent's edges through a dense id map.  The sub-MRF keeps the order of
/// `variables`, the parent's edge order and matrices in first-reference
/// order — the same sub-MRF DecomposedSolver builds for a component.
[[nodiscard]] SubProblem extract_subproblem(const Mrf& mrf,
                                            const std::vector<VariableId>& variables);

/// Solves each component with `base`, in parallel when `parallel` is set,
/// and merges labels; energies and bounds add across components.  The
/// parent's edges are bucketed by component once (a counting sort that
/// keeps parent order), so building every sub-MRF costs one pass over the
/// edges in total rather than one per component.
class DecomposedSolver final : public Solver {
 public:
  explicit DecomposedSolver(const Solver& base, bool parallel = true)
      : base_(base), parallel_(parallel) {}

  using Solver::solve;

  [[nodiscard]] std::string name() const override {
    return "decomposed(" + base_.name() + ")";
  }
  [[nodiscard]] SolveResult solve(const Mrf& mrf, const SolveOptions& options) const override;

 private:
  const Solver& base_;
  bool parallel_;
};

}  // namespace icsdiv::mrf
