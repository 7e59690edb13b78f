// SolverRegistry: every registered name round-trips to a working solver,
// and unknown names (the retired ones included) error cleanly.
#include <gtest/gtest.h>

#include "mrf/registry.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

/// Small loopy MRF every built-in (including exhaustive) can handle.
Mrf small_mrf() {
  support::Rng rng(99);
  Mrf mrf;
  for (int i = 0; i < 6; ++i) {
    const VariableId v = mrf.add_variable(3);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(9, 0.0);
  for (std::size_t a = 0; a < 3; ++a) data[a * 3 + a] = 1.0;
  const MatrixId m = mrf.add_matrix(3, 3, std::move(data));
  for (VariableId v = 0; v + 1 < 6; ++v) mrf.add_edge(v, v + 1, m);
  mrf.add_edge(0, 5, m);
  return mrf;
}

TEST(SolverRegistry, ListsTheBuiltInsSorted) {
  const std::vector<std::string> expected{"exhaustive", "icm", "trws"};
  EXPECT_EQ(SolverRegistry::instance().names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(SolverRegistry::instance().contains(name)) << name;
  }
  EXPECT_EQ(SolverRegistry::instance().names_joined(), "exhaustive|icm|trws");
}

TEST(SolverRegistry, EveryRegisteredNameConstructsAWorkingSolver) {
  const Mrf mrf = small_mrf();
  for (const std::string& name : SolverRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Solver> solver = SolverRegistry::instance().create(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), name);
    const SolveResult result = solver->solve(mrf);
    ASSERT_EQ(result.labels.size(), mrf.variable_count());
    // The reported energy must be the energy of the returned labelling.
    EXPECT_NEAR(mrf.energy(result.labels), result.energy, 1e-9);
  }
}

TEST(SolverRegistry, ContainsRejectsUnknownNames) {
  EXPECT_FALSE(SolverRegistry::instance().contains("gurobi"));
  EXPECT_FALSE(SolverRegistry::instance().contains(""));
}

TEST(SolverRegistry, UnknownNameErrorsCleanlyAndListsOptions) {
  try {
    (void)SolverRegistry::instance().create("no-such-solver");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-solver"), std::string::npos);
    EXPECT_NE(what.find("trws"), std::string::npos) << "should list registered names";
  }
}

TEST(SolverRegistry, RetiredSolversAreUnknown) {
  for (const std::string name : {"bp", "multilevel"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(SolverRegistry::instance().contains(name));
    try {
      SolverRegistry::instance().require_known(name);
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(error.what(), "unknown solver: " + name + " (registered: exhaustive, icm, trws)");
    }
    EXPECT_THROW((void)SolverRegistry::instance().create(name), InvalidArgument);
  }
  EXPECT_NO_THROW(SolverRegistry::instance().require_known("trws"));
}

}  // namespace
}  // namespace icsdiv::mrf
