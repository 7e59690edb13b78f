// Cross-module integration and property sweeps: random estates run through
// the full pipeline (catalog → network → optimise → evaluate → serialise),
// asserting the invariants the paper's argument rests on.
#include <gtest/gtest.h>

#include "bayes/least_effort.hpp"
#include "bayes/metric.hpp"
#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "core/upgrade.hpp"
#include "graph/generators.hpp"
#include "sim/compiled.hpp"

namespace icsdiv {
namespace {

/// Random estate: `hosts` hosts, 2 services, 4/3 products, random degree-6
/// topology, vendor-lineage similarity structure.
struct Estate {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId s1;
  core::ServiceId s2;

  explicit Estate(std::uint64_t seed, std::size_t hosts = 30) {
    support::Rng rng(seed);
    s1 = catalog.add_service("s1");
    s2 = catalog.add_service("s2");
    std::vector<core::ProductId> p1;
    std::vector<core::ProductId> p2;
    for (int i = 0; i < 4; ++i) p1.push_back(catalog.add_product(s1, "a" + std::to_string(i)));
    for (int i = 0; i < 3; ++i) p2.push_back(catalog.add_product(s2, "b" + std::to_string(i)));
    catalog.set_similarity(p1[0], p1[1], 0.4);
    catalog.set_similarity(p1[2], p1[3], 0.25);
    catalog.set_similarity(p2[0], p2[1], 0.5);

    const graph::Graph topology = graph::random_network(hosts, 6.0, rng);
    network = std::make_unique<core::Network>(catalog);
    for (std::size_t h = 0; h < hosts; ++h) {
      const core::HostId host = network->add_host("n" + std::to_string(h));
      network->add_service(host, s1, p1);
      if (h % 2 == 0) network->add_service(host, s2, p2);
    }
    for (const graph::Edge& edge : topology.edges()) network->add_link(edge.u, edge.v);
  }
};

class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSweep, OptimizerDominatesEveryBaseline) {
  Estate estate(GetParam());
  const core::Optimizer optimizer(*estate.network);
  const auto optimal = optimizer.optimize();
  const core::DiversificationProblem problem(*estate.network);

  support::Rng rng(GetParam() * 13);
  const double optimal_energy = optimal.solve.energy;
  EXPECT_LE(optimal_energy,
            problem.energy_of(core::greedy_coloring_assignment(*estate.network)) + 1e-9);
  EXPECT_LE(optimal_energy,
            problem.energy_of(core::random_assignment(*estate.network, rng)) + 1e-9);
  EXPECT_LE(optimal_energy, problem.energy_of(core::mono_assignment(*estate.network)) + 1e-9);
  EXPECT_TRUE(optimal.constraints_satisfied);
}

TEST_P(PipelineSweep, MetricsAgreeOnOrdering) {
  Estate estate(GetParam());
  const core::Optimizer optimizer(*estate.network);
  const auto optimal = optimizer.optimize().assignment;
  const auto mono = core::mono_assignment(*estate.network);

  const core::HostId entry = 0;
  const core::HostId target = static_cast<core::HostId>(estate.network->host_count() - 1);
  const auto metric_optimal = bayes::bn_diversity_metric(optimal, entry, target);
  const auto metric_mono = bayes::bn_diversity_metric(mono, entry, target);
  // d_bn, the similarity mass, and effective richness must all rank the
  // optimal assignment above the mono-culture.
  EXPECT_GT(metric_optimal.d_bn, metric_mono.d_bn);
  EXPECT_LT(core::total_edge_similarity(optimal), core::total_edge_similarity(mono));
  EXPECT_GT(core::normalized_effective_richness(optimal),
            core::normalized_effective_richness(mono));
  // And the adversary needs at least as many distinct exploits.
  const auto effort_optimal = bayes::least_attack_effort(optimal, entry, target);
  const auto effort_mono = bayes::least_attack_effort(mono, entry, target);
  ASSERT_TRUE(effort_optimal.exploit_count.has_value());
  ASSERT_TRUE(effort_mono.exploit_count.has_value());
  EXPECT_GE(*effort_optimal.exploit_count, *effort_mono.exploit_count);
}

TEST_P(PipelineSweep, SerializationPreservesOptimization) {
  Estate estate(GetParam());
  const core::ProductCatalog catalog2 =
      core::catalog_from_json(core::catalog_to_json(estate.catalog));
  const core::Network network2 =
      core::network_from_json(catalog2, core::network_to_json(*estate.network));
  const auto a = core::Optimizer(*estate.network).optimize();
  const auto b = core::Optimizer(network2).optimize();
  EXPECT_NEAR(a.solve.energy, b.solve.energy, 1e-12);

  // Assignments survive the JSON round trip bit-exactly.
  const core::Assignment restored =
      core::Assignment::from_json(*estate.network, a.assignment.to_json());
  EXPECT_EQ(restored, a.assignment);
}

TEST_P(PipelineSweep, UpgradePlannerConvergesToLocalOptimum) {
  Estate estate(GetParam());
  const auto mono = core::mono_assignment(*estate.network);
  const core::UpgradePlan plan = core::plan_upgrade(*estate.network, mono);
  // Unlimited-budget greedy ends at a single-host local optimum whose
  // energy is bounded by the start's.
  EXPECT_LE(plan.final_energy, plan.initial_energy);
  const core::UpgradePlan again = core::plan_upgrade(*estate.network, plan.result);
  EXPECT_TRUE(again.steps.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep, ::testing::Values(3u, 14u, 159u, 2653u, 58979u));

// ---------------------------------------------------------------------------
// Defender dynamics.

TEST(DefendedSimulation, DetectionSlowsOrStopsTheWorm) {
  Estate estate(7, 40);
  const auto mono = core::mono_assignment(*estate.network);

  sim::SimulationParams undefended;
  undefended.max_ticks = 2000;
  sim::SimulationParams defended = undefended;
  defended.detection_probability = 0.2;

  const core::HostId entry = 0;
  const core::HostId target = static_cast<core::HostId>(estate.network->host_count() - 1);
  const auto base = sim::CompiledPropagation(mono, undefended).mttc(entry, target, 300, 5);
  const auto guarded = sim::CompiledPropagation(mono, defended).mttc(entry, target, 300, 5);
  EXPECT_GT(guarded.mean + static_cast<double>(guarded.censored),
            base.mean);  // slower, possibly eradicated
  EXPECT_EQ(base.censored, 0u);
}

TEST(DefendedSimulation, StrongDefenderEradicatesOnALine) {
  // On a 1-wide front a fast defender wins almost always.
  core::ProductCatalog catalog;
  const auto s = catalog.add_service("s");
  const auto p = catalog.add_product(s, "p");
  core::Network network(catalog);
  for (int i = 0; i < 6; ++i) {
    network.add_host("h" + std::to_string(i));
    network.add_service(static_cast<core::HostId>(i), s, {p});
  }
  for (int i = 0; i < 5; ++i) {
    network.add_link(static_cast<core::HostId>(i), static_cast<core::HostId>(i + 1));
  }
  core::Assignment mono(network);
  for (core::HostId h = 0; h < 6; ++h) mono.assign(h, s, p);

  sim::SimulationParams params;
  params.model.p_avg = 0.02;
  params.model.similarity_weight = 0.05;  // slow worm
  params.detection_probability = 0.5;     // fast defender
  params.max_ticks = 500;
  const auto result = sim::CompiledPropagation(mono, params).mttc(0, 5, 200, 9);
  EXPECT_GT(result.censored, 150u);
}

TEST(DefendedSimulation, ValidatesProbability) {
  Estate estate(1, 10);
  const auto mono = core::mono_assignment(*estate.network);
  sim::SimulationParams bad;
  bad.detection_probability = 1.5;
  EXPECT_THROW(sim::CompiledPropagation(mono, bad), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Reports.

TEST(Reports, DiversificationReportMentionsKeyFacts) {
  Estate estate(11, 12);
  const auto optimal = core::Optimizer(*estate.network).optimize().assignment;
  const std::string report = core::diversification_report(optimal);
  EXPECT_NE(report.find("12 hosts"), std::string::npos);
  EXPECT_NE(report.find("Product distribution"), std::string::npos);
  EXPECT_NE(report.find("s1:"), std::string::npos);
  EXPECT_NE(report.find("Full assignment"), std::string::npos);
}

TEST(Reports, ConstraintViolationsListed) {
  Estate estate(12, 8);
  core::ConstraintSet constraints;
  constraints.fix(0, estate.s1, estate.catalog.product_id(estate.s1, "a0"));
  core::Assignment assignment(*estate.network);
  for (core::HostId h = 0; h < estate.network->host_count(); ++h) {
    assignment.assign(h, estate.s1, estate.catalog.product_id(estate.s1, "a1"));
    if (estate.network->host_runs(h, estate.s2)) {
      assignment.assign(h, estate.s2, estate.catalog.product_id(estate.s2, "b0"));
    }
  }
  const std::string report = core::diversification_report(assignment, constraints);
  EXPECT_NE(report.find("1 violation(s)"), std::string::npos);
}

}  // namespace
}  // namespace icsdiv
