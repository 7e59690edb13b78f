// Solver correctness: TRW-S and ICM against the exhaustive oracle, plus
// the decomposition wrapper.
#include <gtest/gtest.h>

#include "mrf/decompose.hpp"
#include "mrf/exhaustive.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

/// Random pairwise MRF over a random graph: `n` variables, `labels` labels,
/// uniform unaries in [0,1], similarity-style symmetric matrices.
Mrf random_mrf(std::size_t n, std::size_t labels, double edge_probability,
               support::Rng& rng) {
  Mrf mrf;
  for (std::size_t i = 0; i < n; ++i) {
    const VariableId v = mrf.add_variable(labels);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(labels * labels, 0.0);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : rng.uniform() * 0.6;
      data[a * labels + b] = value;
      data[b * labels + a] = value;
    }
  }
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId u = 0; u < n; ++u) {
    for (VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(edge_probability)) mrf.add_edge(u, v, m);
    }
  }
  return mrf;
}

/// Chain MRF (a tree): TRW-S must be exact here.
Mrf chain_mrf(std::size_t n, std::size_t labels, support::Rng& rng) {
  Mrf mrf = random_mrf(n, labels, 0.0, rng);
  std::vector<Cost> data(labels * labels);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId v = 0; v + 1 < n; ++v) mrf.add_edge(v, v + 1, m);
  return mrf;
}

TEST(Exhaustive, FindsKnownOptimum) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  mrf.unary(a)[0] = 5.0;
  mrf.unary(b)[1] = 5.0;
  const MatrixId m = mrf.add_matrix(2, 2, {0, 0, 0, 0});
  mrf.add_edge(a, b, m);
  const SolveResult result = ExhaustiveSolver().solve(mrf);
  EXPECT_EQ(result.labels, (std::vector<Label>{1, 0}));
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
  EXPECT_TRUE(result.converged);
}

TEST(Exhaustive, RefusesHugeLabelSpaces) {
  Mrf mrf;
  for (int i = 0; i < 40; ++i) mrf.add_variable(10);
  // A well-formed model the oracle cannot enumerate: Infeasible, not a
  // malformed argument.
  EXPECT_THROW(ExhaustiveSolver().solve(mrf), icsdiv::Infeasible);
}

class SolverOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOracleSweep, TrwsMatchesExhaustiveOnSmallInstances) {
  support::Rng rng(GetParam());
  const Mrf mrf = random_mrf(8, 3, 0.4, rng);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult trws = TrwsSolver().solve(mrf);

  // Sound bound and a primal within a small gap of the optimum (TRW-S is
  // not exact on loopy graphs, but on these weak similarity couplings it
  // lands on or near the optimum).
  EXPECT_LE(trws.lower_bound, exact.energy + 1e-9);
  EXPECT_GE(trws.energy, exact.energy - 1e-9);
  EXPECT_LE(trws.energy, exact.energy + 0.15);
}

TEST_P(SolverOracleSweep, TrwsExactOnChains) {
  support::Rng rng(GetParam() * 7 + 1);
  const Mrf mrf = chain_mrf(9, 4, rng);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult trws = TrwsSolver().solve(mrf);
  EXPECT_NEAR(trws.energy, exact.energy, 1e-9);
  // On trees the LP relaxation is tight: bound meets energy.
  EXPECT_NEAR(trws.lower_bound, exact.energy, 1e-6);
  EXPECT_TRUE(trws.converged);
}

TEST_P(SolverOracleSweep, IcmNeverWorseThanItsStart) {
  support::Rng rng(GetParam() * 3 + 2);
  const Mrf mrf = random_mrf(12, 3, 0.3, rng);
  // ICM descends from the all-zero labeling.
  const Cost start_energy = mrf.energy(std::vector<Label>(mrf.variable_count(), 0));

  const SolveResult icm = IcmSolver().solve(mrf);
  EXPECT_LE(icm.energy, start_energy + 1e-12);
  EXPECT_TRUE(icm.converged);

  // Neither heuristic beats the exact optimum, and TRW-S's bound stays
  // below it.  (Zero-start ICM is not dominated by TRW-S here: on seed 8
  // it finds the optimum, 10.847, where TRW-S stops at 11.272.)
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult trws = TrwsSolver().solve(mrf);
  EXPECT_GE(icm.energy, exact.energy - 1e-9);
  EXPECT_GE(trws.energy, exact.energy - 1e-9);
  EXPECT_LE(trws.lower_bound, exact.energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

TEST(Trws, HandlesIsolatedVariables) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(3);
  mrf.unary(a)[2] = -1.0;
  (void)mrf.add_variable(2);
  const SolveResult result = TrwsSolver().solve(mrf);
  EXPECT_EQ(result.labels[a], 2);
  EXPECT_NEAR(result.energy, -1.0, 1e-12);
  EXPECT_NEAR(result.lower_bound, -1.0, 1e-12);
}

TEST(Trws, EmptyModel) {
  const SolveResult result = TrwsSolver().solve(Mrf{});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
}

TEST(Trws, RespectsForbiddenCosts) {
  // Two variables, all combinations forbidden except (1, 0).
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {kForbidden, kForbidden, 0.0, kForbidden});
  mrf.add_edge(a, b, m);
  const SolveResult result = TrwsSolver().solve(mrf);
  EXPECT_EQ(result.labels, (std::vector<Label>{1, 0}));
  EXPECT_LT(result.energy, 1.0);
}

TEST(Decompose, ComponentsFoundCorrectly) {
  Mrf mrf;
  for (int i = 0; i < 6; ++i) mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {1, 0, 0, 1});
  mrf.add_edge(0, 1, m);
  mrf.add_edge(1, 2, m);
  mrf.add_edge(4, 5, m);
  const auto components = mrf_components(mrf);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<VariableId>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<VariableId>{3}));
  EXPECT_EQ(components[2], (std::vector<VariableId>{4, 5}));
}

TEST(Decompose, MatchesWholeProblemSolve) {
  support::Rng rng(77);
  // Two disjoint blobs in one MRF.
  Mrf mrf;
  for (int i = 0; i < 10; ++i) {
    const VariableId v = mrf.add_variable(3);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(9);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(3, 3, std::move(data));
  for (VariableId v = 0; v < 4; ++v) mrf.add_edge(v, v + 1, m);
  for (VariableId v = 5; v < 9; ++v) mrf.add_edge(v, v + 1, m);

  const TrwsSolver base;
  const SolveResult whole = base.solve(mrf);
  const SolveResult split = DecomposedSolver(base, /*parallel=*/true).solve(mrf, SolveOptions{});
  EXPECT_NEAR(split.energy, whole.energy, 1e-9);
  EXPECT_NEAR(split.lower_bound, whole.lower_bound, 1e-6);
  EXPECT_NEAR(mrf.energy(split.labels), split.energy, 1e-12);
}

TEST(Decompose, SubproblemExtractionValidatesClosure) {
  Mrf mrf;
  mrf.add_variable(2);
  mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {0, 1, 1, 0});
  mrf.add_edge(0, 1, m);
  EXPECT_THROW(extract_subproblem(mrf, {0}), icsdiv::InvalidArgument);
}

TEST(Decompose, SubproblemExtractionRejectsARepeatedVariable) {
  // A repeated id would add an edgeless copy whose label, written back
  // through parent_variable, overwrites the solved one.
  Mrf mrf;
  mrf.add_variable(2);
  mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {0, 1, 1, 0});
  mrf.add_edge(0, 1, m);
  EXPECT_THROW(extract_subproblem(mrf, {0, 0, 1}), icsdiv::InvalidArgument);
  EXPECT_THROW(extract_subproblem(mrf, {0, 1, 1}), icsdiv::InvalidArgument);

  const SubProblem sub = extract_subproblem(mrf, {1, 0});
  EXPECT_EQ(sub.parent_variable, (std::vector<VariableId>{1, 0}));
  ASSERT_EQ(sub.mrf.edge_count(), 1u);
  EXPECT_EQ(sub.mrf.edges()[0].u, 1u);  // parent 0 is sub variable 1
  EXPECT_EQ(sub.mrf.edges()[0].v, 0u);
}

}  // namespace
}  // namespace icsdiv::mrf
