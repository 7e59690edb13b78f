// Problem compilation (network → MRF) and the optimizer facade.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "mrf/exhaustive.hpp"
#include "mrf/registry.hpp"
#include "mrf/trws.hpp"

namespace icsdiv::core {
namespace {

/// Two services, three products each; pentagon topology plus a chord.
struct Instance {
  ProductCatalog catalog;
  std::unique_ptr<Network> network;
  ServiceId os;
  ServiceId wb;
  std::vector<ProductId> os_products;
  std::vector<ProductId> wb_products;

  Instance() {
    os = catalog.add_service("OS");
    wb = catalog.add_service("WB");
    for (const char* name : {"os-a", "os-b", "os-c"}) {
      os_products.push_back(catalog.add_product(os, name));
    }
    for (const char* name : {"wb-a", "wb-b", "wb-c"}) {
      wb_products.push_back(catalog.add_product(wb, name));
    }
    catalog.set_similarity(os_products[0], os_products[1], 0.4);
    catalog.set_similarity(os_products[1], os_products[2], 0.2);
    catalog.set_similarity(wb_products[0], wb_products[1], 0.5);

    network = std::make_unique<Network>(catalog);
    for (int i = 0; i < 5; ++i) {
      const HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, os, os_products);
      if (i != 4) network->add_service(h, wb, wb_products);
    }
    for (int i = 0; i < 5; ++i) network->add_link(i, (i + 1) % 5);
    network->add_link(0, 2);
  }
};

TEST(Problem, VariableAndEdgeCounts) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  // 5 OS slots + 4 WB slots.
  EXPECT_EQ(problem.variable_count(), 9u);
  // OS couples on all 6 links; WB couples on links among h0..h3:
  // pentagon edges 0-1,1-2,2-3 plus chord 0-2 → 4.
  EXPECT_EQ(problem.mrf().edge_count(), 6u + 4u);
  EXPECT_FALSE(problem.has_intra_host_edges());
}

TEST(Problem, SharedMatricesAcrossEdges) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  // All hosts share candidate ranges → exactly one matrix per service.
  EXPECT_EQ(problem.mrf().matrix_count(), 2u);
}

TEST(Problem, UnaryConstantApplied) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  for (mrf::VariableId v = 0; v < problem.variable_count(); ++v) {
    for (const mrf::Cost cost : problem.mrf().unary(v)) {
      EXPECT_DOUBLE_EQ(cost, 0.01);  // Pr_const of Eq. 2
    }
  }
}

TEST(Problem, FixedConstraintRestrictsLabels) {
  Instance inst;
  ConstraintSet constraints;
  constraints.fix(0, inst.os, inst.os_products[2]);
  const DiversificationProblem problem(*inst.network, constraints);
  const auto labels = problem.labels_of(problem.variable_of(0, 0));
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], inst.os_products[2]);
}

TEST(Problem, VariableOfRejectsUnknownHostsAndSlots) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  const auto hosts = static_cast<HostId>(inst.network->host_count());
  EXPECT_THROW((void)problem.variable_of(hosts, 0), InvalidArgument);
  EXPECT_THROW((void)problem.variable_of(kAllHosts, 0), InvalidArgument);
  EXPECT_THROW((void)problem.variable_of(0, inst.network->services_of(0).size()),
               InvalidArgument);
}

TEST(Problem, InfeasibleFixThrows) {
  Instance inst;
  // Restrict h0's OS candidates, then fix to an excluded product.
  ProductCatalog& catalog = inst.catalog;
  Network narrow(catalog);
  const HostId h = narrow.add_host("only-a");
  narrow.add_service(h, inst.os, {inst.os_products[0]});
  ConstraintSet constraints;
  constraints.fix(h, inst.os, inst.os_products[1]);
  EXPECT_THROW(DiversificationProblem(narrow, constraints), InvalidArgument);
}

TEST(Problem, EncodeDecodeRoundTrip) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  std::vector<mrf::Label> labels(problem.variable_count());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<mrf::Label>(i % 3);
  }
  const Assignment assignment = problem.decode(labels);
  EXPECT_TRUE(assignment.complete());
  EXPECT_EQ(problem.encode(assignment), labels);
  EXPECT_NEAR(problem.energy_of(assignment), problem.mrf().energy(labels), 1e-12);
}

TEST(Problem, EnergyEqualsUnaryPlusSimilarity) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  Assignment mono = mono_assignment(*inst.network);
  const double expected =
      0.01 * static_cast<double>(problem.variable_count()) + total_edge_similarity(mono);
  EXPECT_NEAR(problem.energy_of(mono), expected, 1e-9);
}

TEST(Problem, PairwiseConstraintAddsIntraHostEdge) {
  Instance inst;
  PairConstraint rule;
  rule.host = 0;
  rule.trigger_service = inst.os;
  rule.trigger_product = inst.os_products[0];
  rule.partner_service = inst.wb;
  rule.partner_product = inst.wb_products[0];
  rule.polarity = ConstraintPolarity::Forbid;
  ConstraintSet constraints;
  constraints.add(rule);

  const DiversificationProblem problem(*inst.network, constraints);
  EXPECT_TRUE(problem.has_intra_host_edges());
  EXPECT_EQ(problem.mrf().edge_count(), 10u + 1u);
}

TEST(Problem, ConditionalUnaryEncodingExactWhenPinned) {
  Instance inst;
  ConstraintSet constraints;
  constraints.fix(0, inst.os, inst.os_products[0]);
  PairConstraint rule;
  rule.host = 0;
  rule.trigger_service = inst.os;
  rule.trigger_product = inst.os_products[0];
  rule.partner_service = inst.wb;
  rule.partner_product = inst.wb_products[1];
  rule.polarity = ConstraintPolarity::Forbid;
  constraints.add(rule);

  ProblemOptions options;
  options.encoding = ConstraintEncoding::ConditionalUnary;
  const DiversificationProblem problem(*inst.network, constraints, options);
  EXPECT_FALSE(problem.has_intra_host_edges());

  const Optimizer optimizer(*inst.network);
  OptimizeOptions opt;
  opt.problem = options;
  const auto outcome = optimizer.optimize(constraints, opt);
  EXPECT_TRUE(outcome.constraints_satisfied);
  EXPECT_NE(outcome.assignment.product_of(0, inst.wb).value(), inst.wb_products[1]);
}

TEST(Optimizer, MatchesExhaustiveOnSmallInstance) {
  Instance inst;
  const DiversificationProblem problem(*inst.network);
  const mrf::SolveResult exact = mrf::ExhaustiveSolver().solve(problem.mrf());

  const Optimizer optimizer(*inst.network);
  const OptimizeOutcome outcome = optimizer.optimize();
  EXPECT_NEAR(outcome.solve.energy, exact.energy, 1e-9)
      << "TRW-S must reach the brute-force optimum on this instance";
  EXPECT_TRUE(outcome.constraints_satisfied);
  EXPECT_TRUE(outcome.assignment.complete());
}

TEST(Optimizer, ConstrainedOptimumRespectsConstraintsAndCostsMore) {
  Instance inst;
  const Optimizer optimizer(*inst.network);
  const OptimizeOutcome free = optimizer.optimize();

  ConstraintSet constraints;
  constraints.fix(0, inst.os, inst.os_products[0]);
  constraints.fix(1, inst.os, inst.os_products[0]);  // force a similar pair
  const OptimizeOutcome constrained = optimizer.optimize(constraints);

  EXPECT_TRUE(constrained.constraints_satisfied);
  EXPECT_EQ(constrained.assignment.product_of(0, inst.os).value(), inst.os_products[0]);
  EXPECT_GE(constrained.pairwise_similarity, free.pairwise_similarity - 1e-9);
}

TEST(Optimizer, AllRegisteredSolversProduceValidAssignments) {
  Instance inst;
  const Optimizer optimizer(*inst.network);
  for (const std::string& name : mrf::SolverRegistry::instance().names()) {
    OptimizeOptions options;
    options.solver = name;
    const OptimizeOutcome outcome = optimizer.optimize({}, options);
    EXPECT_TRUE(outcome.assignment.complete());
    EXPECT_NO_THROW(outcome.assignment.validate());
  }
}

TEST(Optimizer, DecomposedEqualsMonolithicSolve) {
  Instance inst;
  const Optimizer optimizer(*inst.network);
  const DiversificationProblem problem(*inst.network);
  const OptimizeOutcome decomposed = optimizer.optimize_problem(problem);
  const mrf::SolveResult monolithic = mrf::TrwsSolver().solve(problem.mrf());
  EXPECT_NEAR(decomposed.solve.energy, monolithic.energy, 1e-9);
}

TEST(Baselines, MonoUsesOneProductPerService) {
  Instance inst;
  const Assignment mono = mono_assignment(*inst.network);
  const auto histogram = product_histogram(mono, inst.os);
  EXPECT_EQ(histogram.size(), 1u);
  EXPECT_DOUBLE_EQ(identical_neighbor_ratio(mono), 1.0);
  EXPECT_NEAR(effective_richness(mono, inst.os), 1.0, 1e-12);
}

TEST(Baselines, RandomIsValidAndDeterministicPerSeed) {
  Instance inst;
  support::Rng rng1(5);
  support::Rng rng2(5);
  const Assignment a = random_assignment(*inst.network, rng1);
  const Assignment b = random_assignment(*inst.network, rng2);
  EXPECT_EQ(a, b);
  EXPECT_NO_THROW(a.validate());
}

TEST(Baselines, GreedyBeatsMonoAndOptimalBeatsGreedy) {
  Instance inst;
  const Assignment mono = mono_assignment(*inst.network);
  const Assignment greedy = greedy_coloring_assignment(*inst.network);
  const Optimizer optimizer(*inst.network);
  const OptimizeOutcome optimal = optimizer.optimize();

  const double mono_cost = total_edge_similarity(mono);
  const double greedy_cost = total_edge_similarity(greedy);
  const double optimal_cost = total_edge_similarity(optimal.assignment);
  EXPECT_LT(greedy_cost, mono_cost);
  EXPECT_LE(optimal_cost, greedy_cost + 1e-9);
}

TEST(Baselines, RespectFixedConstraints) {
  Instance inst;
  ConstraintSet constraints;
  constraints.fix(2, inst.os, inst.os_products[1]);
  support::Rng rng(3);
  for (const Assignment& assignment :
       {mono_assignment(*inst.network, constraints),
        random_assignment(*inst.network, rng, constraints),
        greedy_coloring_assignment(*inst.network, constraints)}) {
    EXPECT_EQ(assignment.product_of(2, inst.os).value(), inst.os_products[1]);
  }
}

TEST(Baselines, RepairSatisfiesForbidPair) {
  Instance inst;
  PairConstraint rule;
  rule.host = kAllHosts;
  rule.trigger_service = inst.os;
  rule.trigger_product = inst.os_products[0];
  rule.partner_service = inst.wb;
  rule.partner_product = inst.wb_products[0];
  rule.polarity = ConstraintPolarity::Forbid;
  ConstraintSet constraints;
  constraints.add(rule);

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    support::Rng rng(seed);
    const Assignment assignment = random_assignment(*inst.network, rng, constraints);
    EXPECT_TRUE(constraints.satisfied_by(assignment)) << "seed " << seed;
  }
}

TEST(Metrics, EdgeSimilarityHandComputed) {
  Instance inst;
  Assignment assignment(*inst.network);
  for (HostId h = 0; h < 5; ++h) {
    assignment.assign(h, inst.os, inst.os_products[0]);
    if (h != 4) assignment.assign(h, inst.wb, inst.wb_products[h % 2]);
  }
  // OS: identical on all 6 links → 6.0.  WB links: 0-1 (a,b)=0.5,
  // 1-2 (b,a)=0.5, 2-3 (a,b)=0.5, 0-2 (a,a)=1.0 → 2.5.
  EXPECT_NEAR(total_edge_similarity(assignment), 8.5, 1e-12);
  EXPECT_NEAR(average_edge_similarity(assignment), 8.5 / 10.0, 1e-12);
}

TEST(Metrics, NormalizedEffectiveRichnessBounds) {
  Instance inst;
  const Assignment mono = mono_assignment(*inst.network);
  const double mono_richness = normalized_effective_richness(mono);
  EXPECT_GT(mono_richness, 0.0);
  EXPECT_LE(mono_richness, 1.0 / 3.0 + 1e-9);  // one product of three per service

  const Optimizer optimizer(*inst.network);
  const auto optimal = optimizer.optimize();
  EXPECT_GT(normalized_effective_richness(optimal.assignment), mono_richness);
}

}  // namespace
}  // namespace icsdiv::core
