// CompiledMrf: structural correctness of the flat CSR view, and
// solver-equivalence fixtures pinning that the refactored (compiled)
// solvers reproduce the pre-refactor implementations bit-for-bit.
//
// The golden constants below were captured from the solver implementations
// as of commit d26b826 (private per-solve adjacency, column-strided matrix
// reads) on the exact fixtures built here; the compiled solvers must keep
// matching them exactly.  For TRW-S and ICM the equivalence is structural
// (identical accumulation order).
#include <gtest/gtest.h>

#include "mrf/compiled.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

/// Random pairwise MRF over a random graph, identical to the generator in
/// solvers_test.cpp: uniform unaries, similarity-style symmetric matrix.
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

std::uint64_t label_hash(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ull;
  for (Label l : labels) {
    h ^= l;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CompiledMrf, CsrIncidenceMatchesModelAdjacency) {
  support::Rng rng(7);
  const Mrf mrf = random_mrf(12, 3, 0.4, rng);
  const CompiledMrf compiled(mrf);

  ASSERT_EQ(compiled.variable_count(), mrf.variable_count());
  ASSERT_EQ(compiled.edge_count(), mrf.edge_count());
  const auto edges = mrf.edges();
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    // Expected order: the model's edges touching v, in edge order.
    std::vector<std::size_t> expected;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].u == v || edges[e].v == v) expected.push_back(e);
    }
    const auto incidents = compiled.incident(v);
    ASSERT_EQ(incidents.size(), expected.size());
    ASSERT_EQ(compiled.degree(v), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(incidents[k].edge, expected[k]);
      const MrfEdge& edge = edges[expected[k]];
      const bool is_u = edge.u == v;
      EXPECT_EQ(incidents[k].i_is_u, is_u ? 1 : 0);
      EXPECT_EQ(incidents[k].other, is_u ? edge.v : edge.u);
    }
  }
}

TEST(CompiledMrf, TransposedAndResolvedMatrixViews) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(3);
  const MatrixId m = mrf.add_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  const std::size_t e = mrf.add_edge(a, b, m);
  const CompiledMrf compiled(mrf);

  const CostMatrix& matrix = mrf.matrix(m);
  // forward(e) is the shared matrix data; transposed(e) swaps the indices.
  EXPECT_EQ(compiled.forward(e), matrix.data.data());
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    for (std::size_t c = 0; c < matrix.cols; ++c) {
      EXPECT_DOUBLE_EQ(compiled.transposed(e)[c * matrix.rows + r], matrix.at(r, c));
      EXPECT_DOUBLE_EQ(compiled.transposed_matrix(m)[c * matrix.rows + r], matrix.at(r, c));
    }
  }

  // Per-incident views: send is θ over (own, other) rows contiguous over the
  // neighbour's labels; recv is the opposite orientation.
  const CompiledIncident& from_a = compiled.incident(a)[0];
  const CompiledIncident& from_b = compiled.incident(b)[0];
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      EXPECT_DOUBLE_EQ(from_a.send[x * 3 + y], matrix.at(x, y));
      EXPECT_DOUBLE_EQ(from_a.recv[y * 2 + x], matrix.at(x, y));
      EXPECT_DOUBLE_EQ(from_b.send[y * 2 + x], matrix.at(x, y));
      EXPECT_DOUBLE_EQ(from_b.recv[x * 3 + y], matrix.at(x, y));
    }
  }

  // Canonical message layout: dir 0 over v's labels, dir 1 over u's labels.
  EXPECT_EQ(compiled.message_offset(e, /*dir_u_to_v=*/true), 0u);
  EXPECT_EQ(compiled.message_offset(e, /*dir_u_to_v=*/false), 3u);
  EXPECT_EQ(compiled.message_size(), 5u);
  EXPECT_EQ(from_a.msg_out, 0u);
  EXPECT_EQ(from_a.msg_in, 3u);
  EXPECT_EQ(from_b.msg_out, 3u);
  EXPECT_EQ(from_b.msg_in, 0u);
}

TEST(CompiledMrf, UnariesAreContiguousCopies) {
  support::Rng rng(9);
  const Mrf mrf = random_mrf(5, 4, 0.5, rng);
  const CompiledMrf compiled(mrf);
  std::size_t total = 0;
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    const auto expected = mrf.unary(v);
    EXPECT_EQ(compiled.unary_offset(v), total);
    for (std::size_t x = 0; x < expected.size(); ++x) {
      EXPECT_DOUBLE_EQ(compiled.unary(v)[x], expected[x]);
    }
    total += expected.size();
  }
  EXPECT_EQ(compiled.unary_size(), total);
}

// ---------------------------------------------------------------------------
// Golden solver-equivalence fixtures (pre-refactor values, see file header).

struct Golden {
  std::uint64_t seed;
  Cost icm_energy;
  std::uint64_t icm_hash;
  Cost trws_energy;
  std::uint64_t trws_hash;
  Cost trws_lower_bound;
};

constexpr Golden kGolden[] = {
    {21, 21.417118278884494, 9216432359739790803ull,  //
     18.893468549549439, 11982879093967365140ull, 14.203311768016356},
    {22, 35.282897497168875, 8870153028926327800ull,  //
     34.200414201120005, 13473393985086935269ull, 4.6974858484007278},
    {23, 25.186543978887048, 15634347368458235664ull,  //
     24.952067912097558, 5712356870810852754ull, 6.5430097489081298},
};

class GoldenEquivalence : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEquivalence, SolversMatchPreRefactorPathExactly) {
  const Golden& golden = GetParam();
  support::Rng rng(golden.seed);
  const Mrf mrf = random_mrf(30, 4, 0.2, rng);
  SolveOptions options;
  options.max_iterations = 30;

  const SolveResult icm = IcmSolver().solve(mrf, options);
  EXPECT_DOUBLE_EQ(icm.energy, golden.icm_energy);
  EXPECT_EQ(label_hash(icm.labels), golden.icm_hash);

  const SolveResult trws = TrwsSolver().solve(mrf, options);
  EXPECT_DOUBLE_EQ(trws.energy, golden.trws_energy);
  EXPECT_EQ(label_hash(trws.labels), golden.trws_hash);
  EXPECT_DOUBLE_EQ(trws.lower_bound, golden.trws_lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenEquivalence, ::testing::ValuesIn(kGolden),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Compiled entry points.

TEST(SolveCompiled, MatchesMrfEntryPointExactly) {
  support::Rng rng(51);
  const Mrf mrf = random_mrf(25, 3, 0.25, rng);
  const CompiledMrf compiled(mrf);
  SolveOptions options;
  options.max_iterations = 20;

  const IcmSolver icm;
  const TrwsSolver trws;
  const Solver* solvers[] = {&icm, &trws};
  for (const Solver* solver : solvers) {
    const SolveResult via_mrf = solver->solve(mrf, options);
    const SolveResult via_compiled = solver->solve_compiled(compiled, options);
    EXPECT_EQ(via_compiled.labels, via_mrf.labels) << solver->name();
    EXPECT_DOUBLE_EQ(via_compiled.energy, via_mrf.energy) << solver->name();
    EXPECT_DOUBLE_EQ(via_compiled.lower_bound, via_mrf.lower_bound) << solver->name();
    EXPECT_EQ(via_compiled.iterations, via_mrf.iterations) << solver->name();
  }
}

}  // namespace
}  // namespace icsdiv::mrf
