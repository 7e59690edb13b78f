#include "mrf/exhaustive.hpp"

#include "support/stopwatch.hpp"

namespace icsdiv::mrf {

SolveResult ExhaustiveSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  support::Stopwatch watch;
  const std::size_t n = mrf.variable_count();

  double combinations = 1.0;
  for (VariableId i = 0; i < n; ++i) {
    combinations *= static_cast<double>(mrf.label_count(i));
    // A well-formed request this solver cannot run: Infeasible, like
    // reliability_exact's size refusal, not a malformed argument.
    if (combinations > kMaxCombinations) {
      throw Infeasible("ExhaustiveSolver: label space too large for brute force");
    }
  }

  SolveResult result;
  result.labels.assign(n, 0);
  if (n == 0) {
    result.energy = 0;
    result.lower_bound = 0;
    result.converged = true;
    return result;
  }

  std::vector<Label> current(n, 0);
  result.energy = mrf.energy(current);
  std::size_t evaluated = 1;
  while (true) {
    // Odometer increment over the mixed-radix label space.
    std::size_t position = 0;
    while (position < n) {
      if (static_cast<std::size_t>(current[position]) + 1 < mrf.label_count(position)) {
        ++current[position];
        break;
      }
      current[position] = 0;
      ++position;
    }
    if (position == n) break;
    // Poll the token every few thousand candidates; the best-so-far makes
    // a meaningful truncated answer even mid-enumeration.
    if (evaluated % 4096 == 0 && options.cancel.expired()) {
      result.lower_bound = -std::numeric_limits<Cost>::infinity();
      result.iterations = evaluated;
      result.truncated = true;
      result.seconds = watch.seconds();
      return result;
    }
    const Cost energy = mrf.energy(current);
    ++evaluated;
    if (energy < result.energy) {
      result.energy = energy;
      result.labels = current;
    }
  }

  result.lower_bound = result.energy;  // exact
  result.iterations = evaluated;
  result.converged = true;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace icsdiv::mrf
