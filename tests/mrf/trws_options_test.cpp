// Solver option paths: cancellation deadlines, iteration caps, and the
// spanning-forest bound's guarantees across random instances.
#include <gtest/gtest.h>

#include <algorithm>

#include "mrf/exhaustive.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

Mrf random_instance(std::uint64_t seed, std::size_t n, std::size_t labels, double density) {
  support::Rng rng(seed);
  Mrf mrf;
  for (std::size_t i = 0; i < n; ++i) {
    const VariableId v = mrf.add_variable(labels);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(labels * labels);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : 0.5 * rng.uniform();
      data[a * labels + b] = data[b * labels + a] = value;
    }
  }
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId u = 0; u < n; ++u) {
    for (VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(density)) mrf.add_edge(u, v, m);
    }
  }
  return mrf;
}

TEST(TrwsOptions, CancelTokenStopsEarly) {
  const Mrf mrf = random_instance(5, 60, 4, 0.3);
  SolveOptions options;
  options.max_iterations = 100000;
  options.tolerance = 0.0;  // never converge by tolerance
  options.cancel = support::CancelToken::after_ms(20);
  const SolveResult result = TrwsSolver().solve(mrf, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.converged);
  EXPECT_LT(result.iterations, 100000u);
  EXPECT_LT(result.seconds, 2.0);
  // The best labeling seen so far, with its exact energy.
  EXPECT_EQ(mrf.energy(result.labels), result.energy);
}

TEST(TrwsOptions, ExpiredTokenTruncatesEverySolver) {
  // 8 variables × 4 labels: 65536 candidates, past exhaustive's first poll.
  const Mrf mrf = random_instance(13, 8, 4, 0.4);
  SolveOptions options;
  options.cancel = support::CancelToken::cancellable();
  options.cancel.cancel();
  const TrwsSolver trws;
  const IcmSolver icm;
  const ExhaustiveSolver exhaustive;
  const Solver* solvers[] = {&trws, &icm, &exhaustive};
  for (const Solver* solver : solvers) {
    SCOPED_TRACE(solver->name());
    const SolveResult result = solver->solve(mrf, options);
    EXPECT_TRUE(result.truncated);
    ASSERT_EQ(result.labels.size(), mrf.variable_count());
    EXPECT_EQ(mrf.energy(result.labels), result.energy);
  }
}

TEST(TrwsOptions, MaxIterationsRespected) {
  const Mrf mrf = random_instance(7, 15, 3, 0.3);
  SolveOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  const SolveResult result = TrwsSolver().solve(mrf, options);
  EXPECT_EQ(result.iterations, 3u);
}

class BoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundSweep, BoundIsValidAndImproves) {
  const Mrf mrf = random_instance(GetParam(), 8, 3, 0.35);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);

  SolveOptions one_iteration;
  one_iteration.max_iterations = 1;
  const SolveResult early = TrwsSolver().solve(mrf, one_iteration);
  SolveOptions many;
  many.max_iterations = 60;
  const SolveResult late = TrwsSolver().solve(mrf, many);

  // Valid at every stage...
  EXPECT_LE(early.lower_bound, exact.energy + 1e-9);
  EXPECT_LE(late.lower_bound, exact.energy + 1e-9);
  // ...and no worse after more iterations (best-so-far is reported).
  EXPECT_GE(late.lower_bound, early.lower_bound - 1e-9);
}

TEST_P(BoundSweep, TreeInstancesSolveToProvenOptimality) {
  support::Rng rng(GetParam() * 101);
  // Random spanning tree over 12 variables.
  Mrf mrf;
  for (int i = 0; i < 12; ++i) {
    const VariableId v = mrf.add_variable(3);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(9);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(3, 3, std::move(data));
  for (VariableId v = 1; v < 12; ++v) {
    mrf.add_edge(static_cast<VariableId>(rng.index(v)), v, m);
  }
  const SolveResult result = TrwsSolver().solve(mrf);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  EXPECT_NEAR(result.energy, exact.energy, 1e-9);
  // The forest bound covers every edge of a tree: certificate is tight.
  EXPECT_NEAR(result.lower_bound, exact.energy, 1e-9);
  EXPECT_LE(result.gap(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundSweep, ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(IcmOptions, EdgelessInstanceLandsOnUnaryArgmin) {
  const Mrf mrf = random_instance(9, 10, 3, 0.0);  // no edges: unary argmin
  const SolveResult result = mrf::IcmSolver().solve(mrf);
  // With no pairwise terms ICM lands on the per-variable unary argmin.
  for (VariableId v = 0; v < 10; ++v) {
    const auto unary = mrf.unary(v);
    const auto best = std::min_element(unary.begin(), unary.end()) - unary.begin();
    EXPECT_EQ(result.labels[v], static_cast<Label>(best));
  }
}

}  // namespace
}  // namespace icsdiv::mrf
