// Common solver interface for MRF energy minimisation.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mrf/compiled.hpp"
#include "mrf/model.hpp"
#include "support/cancel.hpp"

namespace icsdiv::mrf {

struct SolveOptions {
  std::size_t max_iterations = 100;
  /// Convergence threshold on the lower-bound / energy improvement per
  /// iteration (absolute).
  Cost tolerance = 1e-9;
  /// Cooperative cancellation, polled once per iteration: the one way to
  /// bound a solve's wall time.  Solvers stop and return their best
  /// assignment so far tagged `truncated`; the default token never fires.
  support::CancelToken cancel;
};

struct SolveResult {
  std::vector<Label> labels;
  Cost energy = std::numeric_limits<Cost>::infinity();
  /// Valid dual lower bound when the solver provides one, else -inf.
  Cost lower_bound = -std::numeric_limits<Cost>::infinity();
  std::size_t iterations = 0;
  double seconds = 0.0;
  bool converged = false;
  /// True when the solve stopped early on an expired CancelToken: the
  /// labels are the best assignment seen so far, not the full-budget run.
  bool truncated = false;

  /// Duality gap (energy − lower_bound); infinity when no bound exists.
  [[nodiscard]] Cost gap() const noexcept { return energy - lower_bound; }
};

/// Abstract energy-minimisation strategy (Core Guidelines C.121: interface
/// base class).  Implementations are stateless between solve() calls and
/// safe to reuse across problems.
class Solver {
 public:
  virtual ~Solver() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual SolveResult solve(const Mrf& mrf, const SolveOptions& options) const = 0;

  /// Solves on an already-compiled view, skipping the per-solve compile for
  /// callers that hold one (repeated solves of the same model, benches).
  /// The default falls back to the Mrf path; compiled-aware solvers
  /// override it.
  [[nodiscard]] virtual SolveResult solve_compiled(const CompiledMrf& compiled,
                                                   const SolveOptions& options) const {
    return solve(compiled.mrf(), options);
  }

  [[nodiscard]] SolveResult solve(const Mrf& mrf) const { return solve(mrf, SolveOptions{}); }
};

}  // namespace icsdiv::mrf
