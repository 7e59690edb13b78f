// Differential harness for the compiled Bayesian-metric substrate:
// exact-vs-Monte-Carlo agreement bands, compiled-vs-seed golden pins
// (fixture values captured from the pre-CompiledReliability implementation
// at commit 5914431), sharded-sampler thread bit-identity, and the
// InferenceOptions boundary validation.
#include "bayes/compiled.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "bayes/metric.hpp"
#include "core/optimizer.hpp"
#include "runner/workload.hpp"

namespace icsdiv::bayes {
namespace {

/// Line network h0—h1—h2—h3 with one service and two products that share
/// similarity `sim_ab` (the metric_sim_test fixture).
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
      const core::HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, service, {a, b});
    }
    network->add_link(0, 1);
    network->add_link(1, 2);
    network->add_link(2, 3);
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    core::HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

/// A braided multi-service workload; deterministic per seed.
core::Assignment workload_assignment(runner::WorkloadInstance& instance, std::size_t hosts,
                                     std::uint64_t seed) {
  runner::WorkloadParams params;
  params.hosts = hosts;
  params.average_degree = 3.0;
  params.services = 2;
  params.products_per_service = 3;
  params.seed = seed;
  instance = runner::make_workload(params);
  core::OptimizeOptions options;
  options.solver = "icm";
  return core::Optimizer(*instance.network).optimize({}, options).assignment;
}

/// Hub-and-line network: host 0 links to the 48 spokes h1…h48, and the
/// spokes plus a two-host tail form the line h1—h2—…—h50.  The hub's
/// 48-edge burst takes the pins past a burst of 32, from which the sampler
/// once ran a separate vectorised edge-firing path; the values were
/// recorded with that path in place.
struct WideHubFixture {
  static constexpr int kSpokes = 48;
  static constexpr int kHosts = 1 + kSpokes + 2;
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;

  WideHubFixture() {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "A");
    b = catalog.add_product(service, "B");
    catalog.set_similarity(a, b, 0.5);
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < kHosts; ++i) {
      const core::HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, service, {a, b});
    }
    for (core::HostId h = 1; h <= kSpokes; ++h) network->add_link(0, h);
    for (core::HostId h = 1; h + 1 < kHosts; ++h) network->add_link(h, h + 1);
  }

  [[nodiscard]] core::Assignment alternating() const {
    core::Assignment assignment(*network);
    for (core::HostId h = 0; h < kHosts; ++h) {
      assignment.assign(h, service, h % 2 == 0 ? a : b);
    }
    return assignment;
  }
};

// ---------------------------------------------------------------------------
// InferenceOptions boundary validation (rejected with Infeasible, not
// silently degenerate estimates).

TEST(InferenceOptionsValidation, ZeroSamplesIsInfeasible) {
  InferenceOptions zero_samples;
  zero_samples.mc_samples = 0;
  EXPECT_THROW(validate_inference_options(zero_samples), Infeasible);

  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const CompiledReliability compiled(mono, 0, PropagationModel{});
  EXPECT_THROW((void)compiled.compromise_probability(3, zero_samples), Infeasible);
  EXPECT_THROW((void)compiled.solve_all(zero_samples), Infeasible);
  EXPECT_THROW((void)bn_diversity_metric(mono, 0, 3, zero_samples), Infeasible);
}

TEST(InferenceOptionsValidation, ZeroExactBudgetIsInfeasible) {
  InferenceOptions zero_budget;
  zero_budget.exact_max_edges = 0;
  EXPECT_THROW(validate_inference_options(zero_budget), Infeasible);

  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const CompiledReliability compiled(mono, 0, PropagationModel{});
  EXPECT_THROW((void)compiled.compromise_probability(3, zero_budget), Infeasible);
  const core::HostId targets[] = {3};
  EXPECT_THROW((void)compiled.solve_targets(targets, zero_budget), Infeasible);
}

TEST(InferenceOptionsValidation, EngineNamesRoundTrip) {
  EXPECT_EQ(inference_engine_from_name("auto"), InferenceEngine::Auto);
  EXPECT_EQ(inference_engine_from_name("exact"), InferenceEngine::Exact);
  EXPECT_EQ(inference_engine_from_name("montecarlo"), InferenceEngine::MonteCarlo);
  EXPECT_THROW((void)inference_engine_from_name("clever"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Compiled-vs-seed golden pins.  Exact-engine paths must match the
// pre-refactor implementation bit-for-bit (identical DAG, rates and
// factoring); Monte-Carlo paths changed their stream discipline and are
// pinned within agreement bands of the seed-era values.

TEST(CompiledVsSeed, ExactPinsBitIdentical) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.b, f.a});
  const CompiledReliability bn(mixed, 0, PropagationModel{0.2, 0.5, true});
  InferenceOptions exact;
  exact.engine = InferenceEngine::Exact;
  EXPECT_DOUBLE_EQ(bn.compromise_probability(3, exact), 0.095999999999999946);

  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  const auto metric_mono = bn_diversity_metric(mono, 0, 3);  // Auto resolves to exact here
  EXPECT_DOUBLE_EQ(metric_mono.d_bn, 0.1391003020284855);
  EXPECT_DOUBLE_EQ(metric_mono.p_with_similarity, 0.0024658465510000059);
  EXPECT_DOUBLE_EQ(metric_mono.p_without_similarity, 0.0003430000000000001);
  EXPECT_DOUBLE_EQ(bn_diversity_metric(mixed, 0, 3).d_bn, 0.2414167736495032);
}

TEST(CompiledVsSeed, WideHubSweepBitsPinned) {
  const WideHubFixture f;
  ASSERT_EQ(f.network->topology().degree(0), 48u);
  InferenceOptions options;
  options.engine = InferenceEngine::MonteCarlo;
  options.mc_samples = 20000;
  options.seed = 5;
  options.parallel = false;
  const CompiledReliability compiled(f.alternating(), 0, PropagationModel{});
  const ReliabilitySweep sweep = compiled.solve_all(options);
  const std::vector<std::uint64_t> expected_p = {
      0x3ff0000000000000, 0x3fb9a6b50b0f27bc, 0x3fc18adab9f559b4, 0x3fbd810624dd2f1b,
      0x3fc2f9db22d0e561, 0x3fbe1b089a027526, 0x3fc3020c49ba5e36, 0x3fbecf41f212d774,
      0x3fc2cf41f212d773, 0x3fbd916872b020c5, 0x3fc23a29c779a6b5, 0x3fbd21ff2e48e8a8,
      0x3fc27d566cf41f21, 0x3fbdb573eab367a1, 0x3fc264c2f837b4a2, 0x3fbd77318fc50482,
      0x3fc25fd8adab9f56, 0x3fbebb98c7e28241, 0x3fc27ef9db22d0e6, 0x3fbdc5d63886594b,
      0x3fc2b020c49ba5e4, 0x3fbce3bcd35a8588, 0x3fc2dfa43fe5c91d, 0x3fbd8793dd97f62c,
      0x3fc2786c226809d5, 0x3fbe4f765fd8adac, 0x3fc2a64c2f837b4a, 0x3fbd5cfaacd9e83f,
      0x3fc28240b780346e, 0x3fbd66cf41f212d8, 0x3fc292a305532618, 0x3fbe17c1bda5119d,
      0x3fc2cbfb15b573eb, 0x3fbe8a71de69ad43, 0x3fc2f0068db8bac7, 0x3fbdd2f1a9fbe76d,
      0x3fc29c779a6b50b1, 0x3fbd2f1a9fbe76c9, 0x3fc346dc5d638866, 0x3fbe76c8b4395811,
      0x3fc2e147ae147ae2, 0x3fbdc28f5c28f5c3, 0x3fc24f765fd8adac, 0x3fbeae7d566cf420,
      0x3fc257a786c22681, 0x3fbcfdf3b645a1cb, 0x3fc269ad42c3c9ef, 0x3fbd5cfaacd9e83f,
      0x3fc23a29c779a6b5, 0x3f8dcc63f141205c, 0x3f589374bc6a7efa,
  };
  const std::vector<std::uint64_t> expected_p_baseline = {
      0x3ff0000000000000, 0x3fb16bb98c7e2824, 0x3fb205bc01a36e2f, 0x3fb32fec56d5cfab,
      0x3fb3851eb851eb85, 0x3fb3851eb851eb85, 0x3fb39c0ebedfa440, 0x3fb44d013a92a306,
      0x3fb3dd97f62b6ae8, 0x3fb32ca57a786c23, 0x3fb2e7d566cf41f2, 0x3fb3020c49ba5e36,
      0x3fb2f1a9fbe76c8c, 0x3fb30be0ded288cf, 0x3fb35dcc63f14121, 0x3fb305532617c1be,
      0x3fb31f8a0902de01, 0x3fb3fe5c91d14e3c, 0x3fb2d77318fc5048, 0x3fb34d6a161e4f77,
      0x3fb36e2eb1c432cb, 0x3fb2dab9f559b3d1, 0x3fb3851eb851eb85, 0x3fb2e147ae147ae2,
      0x3fb2dab9f559b3d1, 0x3fb37e90ff972475, 0x3fb3020c49ba5e36, 0x3fb30be0ded288cf,
      0x3fb31c432ca57a79, 0x3fb30be0ded288cf, 0x3fb322d0e5604189, 0x3fb381d7dbf487fd,
      0x3fb2c083126e978e, 0x3fb3b2fec56d5cfb, 0x3fb367a0f9096bba, 0x3fb3295e9e1b089a,
      0x3fb353f7ced91687, 0x3fb28c154c985f07, 0x3fb4083126e978d5, 0x3fb3404ea4a8c155,
      0x3fb381d7dbf487fd, 0x3fb34a2339c0ebee, 0x3fb2bd3c36113405, 0x3fb3da5119ce0760,
      0x3fb2a9930be0ded3, 0x3fb2617c1bda511a, 0x3fb2e7d566cf41f2, 0x3fb3295e9e1b089a,
      0x3fb2c710cb295e9e, 0x3f7758e219652bd4, 0x3f36f0068db8bac7,
  };
  ASSERT_EQ(sweep.p.size(), expected_p.size());
  ASSERT_EQ(sweep.p_baseline.size(), expected_p_baseline.size());
  for (std::size_t h = 0; h < expected_p.size(); ++h) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sweep.p[h]), expected_p[h]) << "p[" << h << "]";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sweep.p_baseline[h]), expected_p_baseline[h])
        << "p_baseline[" << h << "]";
  }
}

TEST(CompiledVsSeed, CoupledSamplerWithinSeedBands) {
  // The coupled sampler draws a different (chunk-seeded) stream, so it is
  // pinned against the seed-era estimates within their joint statistical
  // error, not bit-for-bit.
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.b, f.a});
  const CompiledReliability bn(mixed, 0, PropagationModel{0.2, 0.5, true});
  InferenceOptions mc;
  mc.engine = InferenceEngine::MonteCarlo;
  EXPECT_NEAR(bn.compromise_probability(3, mc), 0.095612500000000003, 0.004);

  // 40-host workload (seed 11, icm): the seed path reported
  // d_bn = 0.5095137420718816 at 200k samples.
  runner::WorkloadParams params;
  params.hosts = 40;
  params.average_degree = 6.0;
  params.services = 3;
  params.products_per_service = 4;
  params.seed = 11;
  const auto instance = runner::make_workload(params);
  core::OptimizeOptions options;
  options.solver = "icm";
  const auto assignment = core::Optimizer(*instance.network).optimize({}, options).assignment;
  InferenceOptions inference;
  inference.engine = InferenceEngine::MonteCarlo;
  inference.mc_samples = 200'000;
  const auto metric = bn_diversity_metric(assignment, 0, 39, inference);
  EXPECT_NEAR(metric.d_bn, 0.5095137420718816, 0.08);
  EXPECT_NEAR(metric.p_with_similarity, 0.0047299999999999998, 0.0006);
  EXPECT_NEAR(metric.p_without_similarity, 0.0024099999999999998, 0.0004);
}

// ---------------------------------------------------------------------------
// Exact vs Monte Carlo on enumerable DAGs: every reachable target of a
// small braided workload, both nets, within the sampling error band.

class ExactVsMonteCarloSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsMonteCarloSweep, AgreementBandsOnAllTargets) {
  runner::WorkloadInstance instance;
  const auto assignment = workload_assignment(instance, 12, GetParam());
  const CompiledReliability compiled(assignment, 0, PropagationModel{});

  InferenceOptions exact;
  exact.engine = InferenceEngine::Exact;
  exact.exact_max_edges = 48;
  InferenceOptions mc;
  mc.engine = InferenceEngine::MonteCarlo;
  mc.mc_samples = 150'000;

  const ReliabilitySweep reference = compiled.solve_all(exact);
  const ReliabilitySweep sampled = compiled.solve_all(mc);
  const double n = static_cast<double>(mc.mc_samples);
  for (core::HostId h = 0; h < 12; ++h) {
    if (!compiled.reachable(h)) {
      EXPECT_EQ(sampled.p[h], 0.0);
      continue;
    }
    // 5σ plus one-sample resolution: overwhelmingly unlikely to trip while
    // tight enough to catch a systematically biased sampler.
    const double sigma = std::sqrt(reference.p[h] * (1.0 - reference.p[h]) / n);
    EXPECT_NEAR(sampled.p[h], reference.p[h], 5.0 * sigma + 1.0 / n) << "host " << h;
    const double sigma_baseline =
        std::sqrt(reference.p_baseline[h] * (1.0 - reference.p_baseline[h]) / n);
    EXPECT_NEAR(sampled.p_baseline[h], reference.p_baseline[h],
                5.0 * sigma_baseline + 1.0 / n)
        << "host " << h;
    // Def. 6: the baseline net never beats the model net.
    EXPECT_LE(reference.p_baseline[h], reference.p[h] + 1e-12) << "host " << h;
  }
  // The single-target path (reversed-walk orientation) agrees with exact
  // too, for every target.
  for (core::HostId h = 1; h < 12; ++h) {
    if (!compiled.reachable(h)) continue;
    const double sigma = std::sqrt(reference.p[h] * (1.0 - reference.p[h]) / n);
    EXPECT_NEAR(compiled.compromise_probability(h, mc), reference.p[h], 5.0 * sigma + 1.0 / n)
        << "host " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsMonteCarloSweep, ::testing::Values(3u, 7u, 11u));

TEST(CompiledReliability, ExactSweepMatchesPerTargetQueries) {
  runner::WorkloadInstance instance;
  const auto assignment = workload_assignment(instance, 12, 5);
  const CompiledReliability compiled(assignment, 0, PropagationModel{});
  InferenceOptions exact;
  exact.engine = InferenceEngine::Exact;
  exact.exact_max_edges = 48;
  const ReliabilitySweep sweep = compiled.solve_all(exact);
  for (core::HostId h = 0; h < 12; ++h) {
    if (!compiled.reachable(h)) continue;
    EXPECT_DOUBLE_EQ(sweep.p[h], compiled.compromise_probability(h, exact)) << "host " << h;
  }
  EXPECT_DOUBLE_EQ(sweep.p[0], 1.0);
  EXPECT_DOUBLE_EQ(sweep.p_baseline[0], 1.0);
}

TEST(CompiledReliability, BaselineProblemCarriesFlatRates) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.b, f.a});
  const CompiledReliability compiled(mixed, 0, PropagationModel{0.2, 0.5, true});
  const ReliabilityProblem baseline = compiled.reliability_problem(3, /*baseline=*/true);
  ASSERT_EQ(baseline.edges.size(), compiled.edge_count());
  for (const ReliabilityEdge& edge : baseline.edges) {
    EXPECT_DOUBLE_EQ(edge.probability, 0.2);
  }
  // The model problem reproduces edge_rate() and stays ≥ the baseline.
  const ReliabilityProblem model = compiled.reliability_problem(3);
  for (std::size_t e = 0; e < model.edges.size(); ++e) {
    EXPECT_DOUBLE_EQ(model.edges[e].probability, compiled.edge_rate(e));
    EXPECT_GE(model.edges[e].probability, 0.2 - 1e-12);
  }
}

TEST(CompiledReliability, UnreachableAndUnknownTargets) {
  LineFixture f(0.5);
  core::Network& net = *f.network;
  const core::HostId lonely = net.add_host("lonely");
  net.add_service(lonely, f.service, {f.a});
  core::Assignment assignment(net);
  for (core::HostId h = 0; h <= lonely; ++h) assignment.assign(h, f.service, f.a);
  const CompiledReliability compiled(assignment, 0, PropagationModel{});
  EXPECT_FALSE(compiled.reachable(lonely));
  EXPECT_DOUBLE_EQ(compiled.compromise_probability(lonely), 0.0);
  const ReliabilitySweep sweep = compiled.solve_all();
  EXPECT_DOUBLE_EQ(sweep.p[lonely], 0.0);
  EXPECT_THROW((void)compiled.compromise_probability(99), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded sampler: bit-identical across 1/2/8 threads and the sequential
// path, for both the sweep and the single-target facades.

TEST(ShardedSampler, ThreadCountBitIdentity) {
  runner::WorkloadInstance instance;
  const auto assignment = workload_assignment(instance, 30, 13);
  const CompiledReliability compiled(assignment, 0, PropagationModel{});

  InferenceOptions sequential;
  sequential.engine = InferenceEngine::MonteCarlo;
  sequential.mc_samples = 60'000;
  sequential.parallel = false;
  const ReliabilitySweep reference = compiled.solve_all(sequential);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    InferenceOptions sharded = sequential;
    sharded.parallel = true;
    sharded.threads = threads;
    const ReliabilitySweep sweep = compiled.solve_all(sharded);
    for (core::HostId h = 0; h < 30; ++h) {
      EXPECT_DOUBLE_EQ(sweep.p[h], reference.p[h]) << "threads " << threads << " host " << h;
      EXPECT_DOUBLE_EQ(sweep.p_baseline[h], reference.p_baseline[h])
          << "threads " << threads << " host " << h;
    }
  }
}

TEST(ShardedSampler, MetricBitIdenticalAcrossThreadCounts) {
  runner::WorkloadInstance instance;
  const auto assignment = workload_assignment(instance, 30, 13);
  InferenceOptions inference;
  inference.engine = InferenceEngine::MonteCarlo;
  inference.mc_samples = 60'000;
  inference.parallel = false;
  const auto reference = bn_diversity_metric(assignment, 0, 29, inference);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    inference.parallel = true;
    inference.threads = threads;
    const auto metric = bn_diversity_metric(assignment, 0, 29, inference);
    EXPECT_DOUBLE_EQ(metric.d_bn, reference.d_bn) << "threads " << threads;
    EXPECT_DOUBLE_EQ(metric.p_with_similarity, reference.p_with_similarity);
    EXPECT_DOUBLE_EQ(metric.p_without_similarity, reference.p_without_similarity);
  }
}

TEST(ShardedSampler, DeterministicPerSeedAndSensitiveToIt) {
  runner::WorkloadInstance instance;
  const auto assignment = workload_assignment(instance, 30, 13);
  const CompiledReliability compiled(assignment, 0, PropagationModel{});
  InferenceOptions mc;
  mc.engine = InferenceEngine::MonteCarlo;
  mc.mc_samples = 60'000;
  const ReliabilitySweep a = compiled.solve_all(mc);
  const ReliabilitySweep b = compiled.solve_all(mc);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.p_baseline, b.p_baseline);
  mc.seed = 123456;
  const ReliabilitySweep c = compiled.solve_all(mc);
  EXPECT_NE(a.p, c.p);  // a different seed family draws different streams
}

}  // namespace
}  // namespace icsdiv::bayes
