// String-keyed solver registry: one place that knows how to build every
// energy-minimisation strategy in the library.
//
// The CLI's --solver flag, the batch runner's scenario grids, the benches
// and the tests all resolve solvers through this registry instead of
// keeping their own name→constructor tables.  The table is fixed: "trws"
// (the paper's method), "icm" (the baseline the grids run beside it) and
// "exhaustive" (the test oracle); DESIGN.md §6 says why no other solver
// earns a slot.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mrf/solver.hpp"

namespace icsdiv::mrf {

class SolverRegistry {
 public:
  /// The process-wide registry of the built-in solvers.
  [[nodiscard]] static const SolverRegistry& instance();

  /// Builds a fresh solver.  Throws InvalidArgument for unknown names,
  /// listing the registered ones.
  [[nodiscard]] std::unique_ptr<Solver> create(std::string_view name) const;

  /// Throws what `create` throws for an unknown name; a no-op otherwise.
  void require_known(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const noexcept;

  /// Registered names in sorted order (stable for menus and sweeps).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Convenience for usage strings: "exhaustive|icm|trws".
  [[nodiscard]] std::string names_joined(std::string_view separator = "|") const;

 private:
  SolverRegistry() = default;
};

}  // namespace icsdiv::mrf
