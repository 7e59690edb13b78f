#include "core/optimizer.hpp"

#include "core/metrics.hpp"
#include "mrf/decompose.hpp"
#include "mrf/registry.hpp"

namespace icsdiv::core {

OptimizeOutcome Optimizer::optimize(const ConstraintSet& constraints,
                                    const OptimizeOptions& options) const {
  const DiversificationProblem problem(*network_, constraints, options.problem);
  return optimize_problem(problem, options);
}

OptimizeOutcome Optimizer::optimize_problem(const DiversificationProblem& problem,
                                            const OptimizeOptions& options) const {
  const std::unique_ptr<mrf::Solver> base = mrf::SolverRegistry::instance().create(options.solver);
  mrf::SolveResult solve_result =
      mrf::DecomposedSolver(*base, options.parallel).solve(problem.mrf(), options.solve);

  OptimizeOutcome outcome{problem.decode(solve_result.labels), std::move(solve_result), 0.0,
                          false};
  outcome.pairwise_similarity = total_edge_similarity(outcome.assignment);
  outcome.constraints_satisfied = problem.constraints().satisfied_by(outcome.assignment);
  return outcome;
}

}  // namespace icsdiv::core
