// The compiled propagation substrate (sim::CompiledPropagation):
// seed-era golden pins (bit-for-bit stream preservation), detection-mode
// infection accounting, dead-state early exit, thread-count determinism,
// censoring-bias reporting, MTTC against closed forms on chains and stars,
// and the integer-threshold Bernoulli identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "sim/compiled.hpp"

namespace icsdiv {
namespace {

using core::HostId;

/// Line network h0—h1—…—h{n-1} with one service and two products that
/// share similarity `sim_ab`.
struct LineFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;

  explicit LineFixture(double sim_ab = 0.5, int hosts = 6) {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "A");
    b = catalog.add_product(service, "B");
    if (sim_ab > 0.0) catalog.set_similarity(a, b, sim_ab);
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < hosts; ++i) {
      const HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, service, {a, b});
    }
    for (HostId h = 0; h + 1 < static_cast<HostId>(hosts); ++h) network->add_link(h, h + 1);
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

// ---------------------------------------------------------------------------
// Golden pins: captured from the seed-era vector<vector<DirectedLink>>
// implementation (commit 21c5ff9) on the 6-host line fixture.  The compiled
// substrate must reproduce the per-run splitmix64 streams bit-for-bit.

TEST(CompiledGolden, SophisticatedMonoMatchesSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.08;
  params.model.similarity_weight = 0.5;
  const sim::CompiledPropagation simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 11, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 9.9749999999999996);
  EXPECT_DOUBLE_EQ(r.std_dev, 3.2227793180209074);
  EXPECT_DOUBLE_EQ(r.ci95_half_width, 0.44665442556790674);
  EXPECT_EQ(r.censored, 0u);
}

// The one Uniform-strategy pin, recorded at 2d25573 (the last commit with
// a silent-attacker knob; at its default of 0 it drew nothing).
TEST(CompiledGolden, UniformMixedMatchesPin) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.08;
  params.model.similarity_weight = 0.5;
  params.strategy = sim::AttackerStrategy::Uniform;
  const sim::CompiledPropagation simulator(mixed, params);
  const auto r = simulator.mttc(0, 5, 200, 5, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 29.649999999999999);
  EXPECT_DOUBLE_EQ(r.std_dev, 12.224758632303965);
  EXPECT_DOUBLE_EQ(r.ci95_half_width, 1.6942651065450998);
  EXPECT_EQ(r.censored, 0u);
}

TEST(CompiledGolden, DetectionModeMatchesSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  params.model.similarity_weight = 0.5;
  params.detection_probability = 0.3;
  params.max_ticks = 400;
  const sim::CompiledPropagation simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 9, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 362.75999999999999);
  EXPECT_DOUBLE_EQ(r.std_dev, 115.23060732427653);
  EXPECT_EQ(r.censored, 181u);
}

TEST(CompiledGolden, EpidemicCurveAndRunOnceMatchSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.2;
  params.model.similarity_weight = 0.8;
  const sim::CompiledPropagation simulator(mono, params);
  support::Rng rng(5);
  sim::SimState state;
  const auto curve = simulator.epidemic_curve(0, 30, rng, state);
  const std::vector<std::size_t> expected{1, 2, 3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
                                          6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6};
  EXPECT_EQ(curve, expected);

  support::Rng rng2(2);
  const auto run = simulator.run_once(0, 5, rng2, state);
  EXPECT_TRUE(run.target_reached);
  EXPECT_EQ(run.ticks, 5u);
  EXPECT_EQ(run.infected_count, 6u);
}

/// Hub-and-line network: host 0 links to the 48 spokes h1…h48, and the
/// spokes plus a two-host tail form the line h1—h2—…—h50.  The hub's 48
/// links take the pins past a span of 32, from which the tick once ran a
/// separate vectorised gather/accept path; the values were recorded with
/// that path in place.
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
      const HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, service, {a, b});
    }
    for (HostId h = 1; h <= kSpokes; ++h) network->add_link(0, h);
    for (HostId h = 1; h + 1 < kHosts; ++h) network->add_link(h, h + 1);
  }

  [[nodiscard]] core::Assignment alternating() const {
    core::Assignment assignment(*network);
    for (HostId h = 0; h < kHosts; ++h) assignment.assign(h, service, h % 2 == 0 ? a : b);
    return assignment;
  }
};

TEST(CompiledGolden, WideHubSophisticatedMttcPinned) {
  const WideHubFixture f;
  ASSERT_EQ(f.network->topology().degree(0), 48u);
  sim::SimulationParams params;
  params.model.p_avg = 0.06;
  const sim::CompiledPropagation simulator(f.alternating(), params);
  const auto r = simulator.mttc(0, WideHubFixture::kHosts - 1, 300, 31, /*parallel=*/false);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean), 0x4030a9d0369d036aULL);  // 16.663333…
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.std_dev), 0x402246cdfd4a948aULL);  // 9.138290…
  EXPECT_EQ(r.censored, 0u);
}

// ---------------------------------------------------------------------------
// Detection-mode infection accounting (the seed-era bug: active.size() was
// reported, so remediated hosts vanished from the count).

TEST(DetectionAccounting, RemediatedHostsStayInInfectedCount) {
  // p = 1 everywhere and detection = 1: tick 1 infects h1, the defender
  // immediately remediates it, and the worm is walled off.  The seed-era
  // code reported infected_count = 1 (just the entry); the compromise of
  // h1 must stay counted.
  LineFixture f(0.0, 4);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.detection_probability = 1.0;
  params.max_ticks = 50;
  const sim::CompiledPropagation simulator(mono, params);
  support::Rng rng(7);
  sim::SimState state;
  const auto result = simulator.run_once(0, 3, rng, state);
  EXPECT_FALSE(result.target_reached);
  EXPECT_TRUE(result.extinct);
  EXPECT_EQ(result.ticks, 50u);          // censoring contract: horizon reported
  EXPECT_EQ(result.infected_count, 2u);  // entry + the remediated h1
}

TEST(DetectionAccounting, EpidemicCurveIsCumulativeUnderRemediation) {
  LineFixture f(0.0, 4);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.detection_probability = 1.0;
  const sim::CompiledPropagation simulator(mono, params);
  support::Rng rng(3);
  sim::SimState state;
  const auto curve = simulator.epidemic_curve(0, 10, rng, state);
  // Tick 1 infects h1 (cumulative 2); remediation then walls the worm
  // off, and the curve must hold at 2 — the seed-era active.size() curve
  // dropped back to 1.
  const std::vector<std::size_t> expected{1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(curve, expected);
}

TEST(DetectionAccounting, CurveStaysMonotoneWithPartialDetection) {
  LineFixture f(0.6);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.4;
  params.detection_probability = 0.35;
  const sim::CompiledPropagation simulator(mono, params);
  support::Rng rng(17);
  sim::SimState state;
  const auto curve = simulator.epidemic_curve(0, 40, rng, state);
  ASSERT_EQ(curve.size(), 41u);
  EXPECT_EQ(curve.front(), 1u);
  for (std::size_t t = 1; t < curve.size(); ++t) EXPECT_GE(curve[t], curve[t - 1]);
  EXPECT_LE(curve.back(), 6u);
}

// ---------------------------------------------------------------------------
// Dead-state early exit.

TEST(DeadState, WalledOffWormExitsImmediately) {
  // h0—h1 linked; target h2 isolated.  The seed-era loop (without a
  // defender there was no exit at all) would spin 200M empty ticks; the
  // dead-state check must return promptly with the censoring fields
  // unchanged.
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("OS");
  const auto a = catalog.add_product(service, "A");
  core::Network network(catalog);
  for (int i = 0; i < 3; ++i) {
    const HostId h = network.add_host(std::string("n").append(std::to_string(i)));
    network.add_service(h, service, {a});
  }
  network.add_link(0, 1);  // h2 stays unreachable
  core::Assignment assignment(network);
  for (HostId h = 0; h < 3; ++h) assignment.assign(h, service, a);

  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.max_ticks = 200'000'000;  // hostile without the early exit
  const sim::CompiledPropagation simulator(assignment, params);
  support::Rng rng(1);
  sim::SimState state;
  const auto result = simulator.run_once(0, 2, rng, state);
  EXPECT_FALSE(result.target_reached);
  EXPECT_TRUE(result.extinct);
  EXPECT_EQ(result.ticks, 200'000'000u);
  EXPECT_EQ(result.infected_count, 2u);
}

TEST(DeadState, ReachedTargetIsNotExtinct) {
  LineFixture f(0.9);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.9;
  const sim::CompiledPropagation simulator(mono, params);
  support::Rng rng(2);
  sim::SimState state;
  const auto result = simulator.run_once(0, 5, rng, state);
  EXPECT_TRUE(result.target_reached);
  EXPECT_FALSE(result.extinct);
}

// ---------------------------------------------------------------------------
// MTTC determinism and censoring-bias reporting.

TEST(Mttc, BitIdenticalAcross1And2And8Threads) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.15;
  params.model.similarity_weight = 0.6;
  params.detection_probability = 0.05;
  params.max_ticks = 500;
  const sim::CompiledPropagation simulator(mixed, params);

  const auto sequential = simulator.mttc(0, 5, 120, 23, /*parallel=*/false);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto chunked = simulator.mttc(0, 5, 120, 23, /*parallel=*/true, threads);
    EXPECT_DOUBLE_EQ(chunked.mean, sequential.mean) << threads << " threads";
    EXPECT_DOUBLE_EQ(chunked.uncensored_mean, sequential.uncensored_mean);
    EXPECT_DOUBLE_EQ(chunked.std_dev, sequential.std_dev);
    EXPECT_DOUBLE_EQ(chunked.ci95_half_width, sequential.ci95_half_width);
    EXPECT_EQ(chunked.censored, sequential.censored);
    EXPECT_EQ(chunked.runs, sequential.runs);
  }
}

TEST(Mttc, UncensoredMeanEqualsMeanWithoutCensoring) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  const sim::CompiledPropagation simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 100, 13);
  ASSERT_EQ(r.censored, 0u);
  EXPECT_DOUBLE_EQ(r.uncensored_mean, r.mean);
}

TEST(Mttc, UncensoredMeanStripsTheHorizonBias) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  params.model.similarity_weight = 0.5;
  params.detection_probability = 0.3;
  params.max_ticks = 400;
  const sim::CompiledPropagation simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 9);
  ASSERT_GT(r.censored, 0u);
  ASSERT_LT(r.censored, r.runs);
  // Censored runs clamp to the horizon, so the all-runs mean sits far
  // above the mean of the runs that actually reached the target.
  EXPECT_LT(r.uncensored_mean, r.mean);
  EXPECT_LT(r.uncensored_mean, static_cast<double>(params.max_ticks));
}

TEST(Mttc, AllCensoredReportsNaNUncensoredMean) {
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("OS");
  const auto a = catalog.add_product(service, "A");
  core::Network network(catalog);
  for (int i = 0; i < 2; ++i) {
    const HostId h = network.add_host(std::string("n").append(std::to_string(i)));
    network.add_service(h, service, {a});
  }
  core::Assignment assignment(network);  // two isolated hosts
  assignment.assign(0, service, a);
  assignment.assign(1, service, a);
  sim::SimulationParams params;
  params.max_ticks = 10;
  const sim::CompiledPropagation simulator(assignment, params);
  const auto r = simulator.mttc(0, 1, 20, 4);
  EXPECT_EQ(r.censored, 20u);
  EXPECT_DOUBLE_EQ(r.mean, 10.0);
  EXPECT_TRUE(std::isnan(r.uncensored_mean));
}

// ---------------------------------------------------------------------------
// MTTC against closed forms.  With the defender off and every host on one
// product, each link on the path to the target is crossed after a
// geometric number of ticks with per-tick success q: max(p_avg, w) for the
// Sophisticated attacker, the mean (p_avg + w) / 2 of its two exploits for
// the Uniform one.  A path of k links therefore has MTTC k/q and variance
// k(1 − q)/q².  Off-path hosts never shorten the wait for the next hop.

constexpr double kClosedFormPAvg = 0.1;
constexpr double kClosedFormWeight = 0.3;
constexpr std::size_t kClosedFormRuns = 4000;

double per_tick_success(sim::AttackerStrategy strategy) {
  return strategy == sim::AttackerStrategy::Sophisticated
             ? std::max(kClosedFormPAvg, kClosedFormWeight)
             : (kClosedFormPAvg + kClosedFormWeight) / 2.0;
}

/// MTTC from `entry` to `target` on a mono-culture of `hosts` hosts over
/// `links`, checked against a path of `hops` links within 5 standard
/// errors.
void expect_closed_form_mttc(std::size_t hosts,
                             std::initializer_list<std::pair<HostId, HostId>> links,
                             HostId entry, HostId target, std::size_t hops,
                             sim::AttackerStrategy strategy) {
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("OS");
  const auto a = catalog.add_product(service, "A");
  core::Network network(catalog);
  for (std::size_t i = 0; i < hosts; ++i) {
    const HostId h = network.add_host(std::string("n").append(std::to_string(i)));
    network.add_service(h, service, {a});
  }
  for (const auto& [u, v] : links) network.add_link(u, v);
  core::Assignment mono(network);
  for (HostId h = 0; h < hosts; ++h) mono.assign(h, service, a);

  sim::SimulationParams params;
  params.model.p_avg = kClosedFormPAvg;
  params.model.similarity_weight = kClosedFormWeight;
  params.strategy = strategy;
  const auto r =
      sim::CompiledPropagation(mono, params).mttc(entry, target, kClosedFormRuns, 2024);

  const double q = per_tick_success(strategy);
  const double k = static_cast<double>(hops);
  const double expected = k / q;
  const double standard_error =
      std::sqrt(k * (1.0 - q) / (q * q) / static_cast<double>(kClosedFormRuns));
  EXPECT_EQ(r.censored, 0u);
  EXPECT_NEAR(r.mean, expected, 5.0 * standard_error)
      << "z = " << (r.mean - expected) / standard_error;
}

TEST(MttcClosedForm, ChainIsKOverQForBothAttackers) {
  for (const auto strategy :
       {sim::AttackerStrategy::Sophisticated, sim::AttackerStrategy::Uniform}) {
    SCOPED_TRACE(strategy == sim::AttackerStrategy::Sophisticated ? "sophisticated" : "uniform");
    expect_closed_form_mttc(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, 0, 5, 5, strategy);
  }
}

TEST(MttcClosedForm, StarLeafToLeafIsTwoOverQForBothAttackers) {
  for (const auto strategy :
       {sim::AttackerStrategy::Sophisticated, sim::AttackerStrategy::Uniform}) {
    SCOPED_TRACE(strategy == sim::AttackerStrategy::Sophisticated ? "sophisticated" : "uniform");
    // Hub 0 with six leaves; the worm enters at leaf 1 and targets leaf 4.
    expect_closed_form_mttc(7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}}, 1, 4, 2,
                            strategy);
  }
}

// ---------------------------------------------------------------------------
// Substrate mechanics.

TEST(SimState, ScratchReuseMatchesFreshStates) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.2;
  params.detection_probability = 0.1;
  params.max_ticks = 300;
  const sim::CompiledPropagation simulator(mixed, params);
  sim::SimState reused;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Rng rng_a(seed);
    support::Rng rng_b(seed);
    sim::SimState fresh_state;
    const auto with_reuse = simulator.run_once(0, 5, rng_a, reused);
    const auto with_fresh = simulator.run_once(0, 5, rng_b, fresh_state);
    EXPECT_EQ(with_reuse.ticks, with_fresh.ticks) << "seed " << seed;
    EXPECT_EQ(with_reuse.target_reached, with_fresh.target_reached);
    EXPECT_EQ(with_reuse.infected_count, with_fresh.infected_count);
    EXPECT_EQ(with_reuse.extinct, with_fresh.extinct);
  }
}

TEST(SimState, ScratchSurvivesSwitchingSimulators) {
  LineFixture small(0.5, 4);
  LineFixture large(0.5, 8);
  const auto small_mono = small.assign({small.a, small.a, small.a, small.a});
  const auto large_mono = large.assign(
      {large.a, large.a, large.a, large.a, large.a, large.a, large.a, large.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.5;
  const sim::CompiledPropagation sim_small(small_mono, params);
  const sim::CompiledPropagation sim_large(large_mono, params);
  sim::SimState state;
  support::Rng rng(6);
  const auto a = sim_small.run_once(0, 3, rng, state);
  const auto b = sim_large.run_once(0, 7, rng, state);  // larger: state regrows
  const auto c = sim_small.run_once(0, 3, rng, state);  // smaller again
  EXPECT_LE(a.infected_count, 4u);
  EXPECT_LE(b.infected_count, 8u);
  EXPECT_LE(c.infected_count, 4u);
}

TEST(Threshold, IntegerAcceptanceMatchesUniformCompare) {
  // The compiled draw `(rng() >> 11) < ceil(p·2^53)` must accept exactly
  // the raw words `Rng::uniform() < p` accepts (the seed-era form).
  const double probabilities[] = {0.0,  1e-12, 0.04, 0.07, 0.3, 0.5,
                                  0.75, 0.999, 1.0,  0.2,  1.0 / 3.0};
  for (const double p : probabilities) {
    const auto threshold = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    support::Rng rng_a(99);
    support::Rng rng_b(99);
    for (int i = 0; i < 20'000; ++i) {
      const bool via_uniform = rng_a.uniform() < p;
      const bool via_threshold = (rng_b() >> 11) < threshold;
      ASSERT_EQ(via_uniform, via_threshold) << "p=" << p << " draw " << i;
    }
  }
}

TEST(Compiled, ExposesShapeAndParams) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.1;
  const sim::CompiledPropagation simulator(mono, params);
  EXPECT_EQ(simulator.host_count(), 6u);
  EXPECT_EQ(simulator.link_count(), 10u);  // 5 edges, both ways
  EXPECT_DOUBLE_EQ(simulator.params().model.p_avg, 0.1);
}

}  // namespace
}  // namespace icsdiv
