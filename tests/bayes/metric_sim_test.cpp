// Propagation model, attack BN, diversity metric d_bn, worm simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bayes/metric.hpp"
#include "bayes/propagation.hpp"
#include "core/baselines.hpp"
#include "sim/compiled.hpp"

namespace icsdiv {
namespace {

using core::HostId;

/// Line network h0—h1—h2—h3 with one service and two products that share
/// similarity `sim_ab`.
struct LineFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;

  explicit LineFixture(double sim_ab = 0.5) {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "A");
    b = catalog.add_product(service, "B");
    if (sim_ab > 0.0) catalog.set_similarity(a, b, sim_ab);
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < 4; ++i) {
      const HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, service, {a, b});
    }
    network->add_link(0, 1);
    network->add_link(1, 2);
    network->add_link(2, 3);
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

TEST(Propagation, EdgeRateFormula) {
  LineFixture f(0.5);
  const core::SharedServices mono(f.assign({f.a, f.a, f.a, f.a}));
  bayes::PropagationModel model{/*p_avg=*/0.1, /*similarity_weight=*/0.2,
                                /*consider_similarity=*/true};
  // Identical products: 1 − (1−0.1)(1−0.2·1) = 0.28.
  EXPECT_NEAR(bayes::edge_infection_rate(mono, 0, 1, model), 0.28, 1e-12);

  const core::SharedServices mixed(f.assign({f.a, f.b, f.a, f.b}));
  // sim 0.5: 1 − 0.9·(1−0.1) = 0.19.
  EXPECT_NEAR(bayes::edge_infection_rate(mixed, 0, 1, model), 0.19, 1e-12);

  model.consider_similarity = false;
  EXPECT_NEAR(bayes::edge_infection_rate(mono, 0, 1, model), 0.1, 1e-12);
}

TEST(Propagation, FullyDissimilarFallsToBaseline) {
  LineFixture f(0.0);
  const core::SharedServices diverse(f.assign({f.a, f.b, f.a, f.b}));
  const bayes::PropagationModel model{0.07, 0.07, true};
  EXPECT_NEAR(bayes::edge_infection_rate(diverse, 0, 1, model), 0.07, 1e-12);
}

TEST(Propagation, ChannelsListShared_AssignedServicesOnly) {
  LineFixture f(0.4);
  core::Assignment partial(*f.network);
  partial.assign(0, f.service, f.a);
  const bayes::PropagationModel model{0.05, 1.0, true};
  // The success probability w·sim of each u→v similarity channel.
  const auto channels = [&] {
    std::vector<double> out;
    core::SharedServices(partial).for_each(0, 1, [&](double similarity, bool) {
      out.push_back(model.similarity_weight * similarity);
    });
    return out;
  };
  // h1 unassigned → no similarity channel yet.
  EXPECT_TRUE(channels().empty());
  partial.assign(1, f.service, f.b);
  const std::vector<double> shared = channels();
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_NEAR(shared[0], 0.4, 1e-12);
}

TEST(AttackBn, MonoChainProbabilityAnalytic) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const bayes::PropagationModel model{0.1, 0.2, true};
  const bayes::CompiledReliability bn(mono, 0, model);
  // Pure chain: P(h3) = rate³ with rate = 0.28.
  const double p = bn.compromise_probability(3);
  EXPECT_NEAR(p, 0.28 * 0.28 * 0.28, 1e-9);
  EXPECT_NEAR(bn.edge_rate(0), 0.28, 1e-12);
}

TEST(AttackBn, EntryAndUnreachable) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const bayes::CompiledReliability bn(mono, 1, bayes::PropagationModel{});
  EXPECT_DOUBLE_EQ(bn.compromise_probability(1), 1.0);

  // Add an isolated host: unreachable → probability 0.
  core::Network& net = *f.network;
  const HostId lonely = net.add_host("lonely");
  net.add_service(lonely, f.service, {f.a});
  core::Assignment assignment(net);
  for (HostId h = 0; h <= lonely; ++h) assignment.assign(h, f.service, f.a);
  const bayes::CompiledReliability bn2(assignment, 0, bayes::PropagationModel{});
  EXPECT_DOUBLE_EQ(bn2.compromise_probability(lonely), 0.0);
}

TEST(AttackBn, ExactAndMonteCarloEnginesAgree) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.b, f.a});
  const bayes::CompiledReliability bn(mixed, 0, bayes::PropagationModel{0.2, 0.5, true});
  bayes::InferenceOptions exact;
  exact.engine = bayes::InferenceEngine::Exact;
  bayes::InferenceOptions mc;
  mc.engine = bayes::InferenceEngine::MonteCarlo;
  mc.mc_samples = 400'000;
  const double p_exact = bn.compromise_probability(3, exact);
  const double p_mc = bn.compromise_probability(3, mc);
  EXPECT_NEAR(p_mc, p_exact, 0.004);
}

TEST(DiversityMetric, BoundsAndMonotonicity) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const auto alternating = f.assign({f.a, f.b, f.a, f.b});

  const auto metric_mono = bayes::bn_diversity_metric(mono, 0, 3);
  const auto metric_diverse = bayes::bn_diversity_metric(alternating, 0, 3);

  // d_bn ≤ 1 and P' is assignment-independent.
  EXPECT_LE(metric_mono.d_bn, 1.0);
  EXPECT_LE(metric_diverse.d_bn, 1.0);
  EXPECT_GT(metric_mono.d_bn, 0.0);
  EXPECT_DOUBLE_EQ(metric_mono.p_without_similarity, metric_diverse.p_without_similarity);
  // More diverse assignment → higher d_bn.
  EXPECT_GT(metric_diverse.d_bn, metric_mono.d_bn);
  // log helpers consistent.
  EXPECT_NEAR(std::pow(10.0, metric_mono.log10_with()), metric_mono.p_with_similarity, 1e-12);
}

TEST(DiversityMetric, PerfectDiversityReachesOne) {
  LineFixture f(0.0);  // zero similarity available
  const auto alternating = f.assign({f.a, f.b, f.a, f.b});
  const auto metric = bayes::bn_diversity_metric(alternating, 0, 3);
  EXPECT_NEAR(metric.d_bn, 1.0, 1e-9);
}

TEST(DiversityMetric, UnreachableTargetThrows) {
  LineFixture f(0.5);
  core::Network& net = *f.network;
  const HostId lonely = net.add_host("x");
  net.add_service(lonely, f.service, {f.a});
  core::Assignment assignment(net);
  for (HostId h = 0; h <= lonely; ++h) assignment.assign(h, f.service, f.a);
  EXPECT_THROW((void)bayes::bn_diversity_metric(assignment, 0, lonely), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Worm simulator.

TEST(WormSim, DeterministicPerSeed) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const sim::CompiledPropagation simulator(mono, sim::SimulationParams{});
  const auto r1 = simulator.mttc(0, 3, 50, /*seed=*/11, /*parallel=*/true);
  const auto r2 = simulator.mttc(0, 3, 50, /*seed=*/11, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r1.mean, r2.mean);
  EXPECT_EQ(r1.censored, r2.censored);
}

TEST(WormSim, MonoFallsFasterThanDiverse) {
  LineFixture f(0.2);  // diversification drops the per-attempt rate to 0.2
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const auto alternating = f.assign({f.a, f.b, f.a, f.b});

  sim::SimulationParams params;
  params.model.p_avg = 0.05;
  params.model.similarity_weight = 1.0;
  const sim::CompiledPropagation sim_mono(mono, params);
  const sim::CompiledPropagation sim_div(alternating, params);
  const auto mttc_mono = sim_mono.mttc(0, 3, 400, 1);
  const auto mttc_div = sim_div.mttc(0, 3, 400, 1);
  EXPECT_LT(mttc_mono.mean * 1.5, mttc_div.mean);
  EXPECT_EQ(mttc_mono.censored, 0u);
}

TEST(WormSim, TargetEqualsEntry) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const sim::CompiledPropagation simulator(mono, sim::SimulationParams{});
  support::Rng rng(1);
  sim::SimState state;
  const auto result = simulator.run_once(0, 0, rng, state);
  EXPECT_TRUE(result.target_reached);
  EXPECT_EQ(result.ticks, 0u);
}

TEST(WormSim, CensoringAtHorizon) {
  LineFixture f(0.0);
  const auto diverse = f.assign({f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.0005;  // nearly impossible propagation
  params.model.similarity_weight = 0.0;
  params.max_ticks = 20;
  const sim::CompiledPropagation simulator(diverse, params);
  const auto result = simulator.mttc(0, 3, 50, 3);
  EXPECT_GT(result.censored, 40u);
  EXPECT_LE(result.mean, 20.0);
}

TEST(WormSim, EpidemicCurveMonotoneAndBounded) {
  LineFixture f(0.8);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const sim::CompiledPropagation simulator(mono, sim::SimulationParams{});
  support::Rng rng(5);
  sim::SimState state;
  const auto curve = simulator.epidemic_curve(0, 50, rng, state);
  ASSERT_EQ(curve.size(), 51u);
  EXPECT_EQ(curve.front(), 1u);
  for (std::size_t t = 1; t < curve.size(); ++t) EXPECT_GE(curve[t], curve[t - 1]);
  EXPECT_LE(curve.back(), 4u);
}

TEST(WormSim, UniformStrategySlowerThanSophisticated) {
  LineFixture f(0.9);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b});
  sim::SimulationParams greedy;
  greedy.strategy = sim::AttackerStrategy::Sophisticated;
  sim::SimulationParams uniform;
  uniform.strategy = sim::AttackerStrategy::Uniform;
  const auto fast = sim::CompiledPropagation(mixed, greedy).mttc(0, 3, 400, 7);
  const auto slow = sim::CompiledPropagation(mixed, uniform).mttc(0, 3, 400, 7);
  EXPECT_LE(fast.mean, slow.mean + 1.0);
}

TEST(WormSim, ParameterValidation) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  sim::SimulationParams zero_ticks;
  zero_ticks.max_ticks = 0;
  EXPECT_THROW(sim::CompiledPropagation(mono, zero_ticks), InvalidArgument);
}

}  // namespace
}  // namespace icsdiv
