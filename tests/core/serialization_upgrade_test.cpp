// JSON serialisation of catalogs/networks and the budgeted upgrade planner.
#include <gtest/gtest.h>

#include <chrono>

#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "core/upgrade.hpp"

namespace icsdiv::core {
namespace {

struct Fixture {
  ProductCatalog catalog;
  std::unique_ptr<Network> network;
  ServiceId os;
  ServiceId wb;
  std::vector<ProductId> os_products;
  std::vector<ProductId> wb_products;

  Fixture() {
    os = catalog.add_service("OS");
    wb = catalog.add_service("WB");
    for (const char* name : {"os-a", "os-b", "os-c"}) {
      os_products.push_back(catalog.add_product(os, name));
    }
    for (const char* name : {"wb-a", "wb-b"}) {
      wb_products.push_back(catalog.add_product(wb, name));
    }
    catalog.set_similarity(os_products[0], os_products[1], 0.3);
    catalog.set_similarity(wb_products[0], wb_products[1], 0.45);

    network = std::make_unique<Network>(catalog);
    for (int i = 0; i < 6; ++i) {
      const HostId h = network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(h, os, os_products);
      if (i < 4) network->add_service(h, wb, wb_products);
    }
    for (int i = 0; i < 6; ++i) network->add_link(i, (i + 1) % 6);
  }
};

TEST(Serialization, CatalogRoundTrip) {
  Fixture f;
  const ProductCatalog restored = catalog_from_json(catalog_to_json(f.catalog));
  EXPECT_EQ(restored.service_count(), f.catalog.service_count());
  EXPECT_EQ(restored.product_count(), f.catalog.product_count());
  const ServiceId os = restored.service_id("OS");
  const ProductId a = restored.product_id(os, "os-a");
  const ProductId b = restored.product_id(os, "os-b");
  const ProductId c = restored.product_id(os, "os-c");
  EXPECT_DOUBLE_EQ(restored.similarity(a, b), 0.3);
  EXPECT_DOUBLE_EQ(restored.similarity(a, c), 0.0);
}

TEST(Serialization, NetworkRoundTrip) {
  Fixture f;
  const support::Json json = network_to_json(*f.network);
  const Network restored = network_from_json(f.catalog, json);
  EXPECT_EQ(restored.host_count(), f.network->host_count());
  EXPECT_EQ(restored.instance_count(), f.network->instance_count());
  EXPECT_EQ(restored.topology().edge_count(), f.network->topology().edge_count());
  for (HostId h = 0; h < restored.host_count(); ++h) {
    EXPECT_EQ(restored.host_name(h), f.network->host_name(h));
    const auto original = f.network->services_of(h);
    const auto loaded = restored.services_of(h);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t s = 0; s < loaded.size(); ++s) {
      EXPECT_EQ(loaded[s].service, original[s].service);
      EXPECT_EQ(loaded[s].candidates, original[s].candidates);
    }
  }
}

TEST(Serialization, OptimizationAgreesAfterRoundTrip) {
  Fixture f;
  const Network restored = network_from_json(f.catalog, network_to_json(*f.network));
  const auto a = Optimizer(*f.network).optimize();
  const auto b = Optimizer(restored).optimize();
  EXPECT_NEAR(a.solve.energy, b.solve.energy, 1e-12);
}

TEST(Serialization, RejectsMalformedDocuments) {
  Fixture f;
  EXPECT_THROW(catalog_from_json(support::Json::parse("{}")), NotFound);
  EXPECT_THROW(network_from_json(f.catalog, support::Json::parse(R"({"hosts": []})")),
               NotFound);
  EXPECT_THROW(
      network_from_json(f.catalog,
                        support::Json::parse(R"({"hosts": [], "links": [["a"]]})")),
      Error);
}

TEST(Serialization, DecodeStopsOnACancelledToken) {
  Fixture f;
  const support::CancelToken cancel = support::CancelToken::cancellable();
  cancel.cancel();
  EXPECT_THROW((void)network_from_json(f.catalog, network_to_json(*f.network), cancel),
               CancelledError);
}

TEST(Serialization, DecodeStopsAtAnExpiredDeadline) {
  Fixture f;
  const support::CancelToken expired = support::CancelToken::with_deadline(
      support::CancelToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW((void)network_from_json(f.catalog, network_to_json(*f.network), expired),
               DeadlineExceededError);
  // A live token that has not expired decodes as the inert default does.
  const Network restored = network_from_json(f.catalog, network_to_json(*f.network),
                                             support::CancelToken::after_ms(60'000));
  EXPECT_EQ(restored.host_count(), f.network->host_count());
}

// ---------------------------------------------------------------------------
// Upgrade planner.

TEST(UpgradePlanner, BudgetZeroMeansUnlimitedAndReachesLocalOptimum) {
  Fixture f;
  const Assignment mono = mono_assignment(*f.network);
  const UpgradePlan plan = plan_upgrade(*f.network, mono);
  EXPECT_LT(plan.final_energy, plan.initial_energy);
  // At the fixed point no single host can improve: one more pass gains 0.
  const UpgradePlan again = plan_upgrade(*f.network, plan.result);
  EXPECT_TRUE(again.steps.empty());
}

TEST(UpgradePlanner, RespectsBudget) {
  Fixture f;
  const Assignment mono = mono_assignment(*f.network);
  UpgradePlanOptions options;
  options.budget = 2;
  const UpgradePlan plan = plan_upgrade(*f.network, mono, {}, options);
  EXPECT_LE(plan.hosts_touched(), 2u);
  EXPECT_LT(plan.final_energy, plan.initial_energy);
}

TEST(UpgradePlanner, MonotoneInBudget) {
  Fixture f;
  const Assignment mono = mono_assignment(*f.network);
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t budget : {1u, 2u, 3u, 4u, 6u}) {
    UpgradePlanOptions options;
    options.budget = budget;
    const UpgradePlan plan = plan_upgrade(*f.network, mono, {}, options);
    EXPECT_LE(plan.final_energy, previous + 1e-9) << "budget " << budget;
    previous = plan.final_energy;
  }
}

TEST(UpgradePlanner, StepGainsMatchEnergyDelta) {
  Fixture f;
  const Assignment mono = mono_assignment(*f.network);
  const UpgradePlan plan = plan_upgrade(*f.network, mono);
  double gain_sum = 0.0;
  for (const UpgradeStep& step : plan.steps) {
    EXPECT_GT(step.energy_gain, 0.0);
    gain_sum += step.energy_gain;
  }
  EXPECT_NEAR(plan.initial_energy - plan.final_energy, gain_sum, 1e-9);
}

TEST(UpgradePlanner, NeverTouchesFullyFixedHosts) {
  Fixture f;
  ConstraintSet constraints;
  constraints.fix(0, f.os, f.os_products[0]);
  constraints.fix(0, f.wb, f.wb_products[0]);
  const Assignment mono = mono_assignment(*f.network, constraints);
  const UpgradePlan plan = plan_upgrade(*f.network, mono, constraints);
  for (const UpgradeStep& step : plan.steps) {
    EXPECT_NE(step.host, 0u);
  }
  EXPECT_EQ(plan.result.product_of(0, f.os).value(), f.os_products[0]);
}

TEST(UpgradePlanner, RepairsConstraintViolatingStart) {
  Fixture f;
  // Global rule: os-a forbids wb-a.  The mono start violates it on every
  // host running both; planned tuples never do.
  PairConstraint rule;
  rule.host = kAllHosts;
  rule.trigger_service = f.os;
  rule.trigger_product = f.os_products[0];
  rule.partner_service = f.wb;
  rule.partner_product = f.wb_products[0];
  rule.polarity = ConstraintPolarity::Forbid;
  ConstraintSet constraints;
  constraints.add(rule);

  Assignment start(*f.network);
  for (HostId h = 0; h < f.network->host_count(); ++h) {
    start.assign(h, f.os, f.os_products[0]);
    if (f.network->host_runs(h, f.wb)) start.assign(h, f.wb, f.wb_products[0]);
  }
  const UpgradePlan plan = plan_upgrade(*f.network, start, constraints);
  for (const UpgradeStep& step : plan.steps) {
    const auto os_product = plan.result.product_of(step.host, f.os);
    if (os_product == f.os_products[0] && f.network->host_runs(step.host, f.wb)) {
      EXPECT_NE(plan.result.product_of(step.host, f.wb).value(), f.wb_products[0]);
    }
  }
}

TEST(UpgradePlanner, ApproachesTrwsOptimum) {
  Fixture f;
  const Assignment mono = mono_assignment(*f.network);
  const UpgradePlan plan = plan_upgrade(*f.network, mono);
  const auto optimal = Optimizer(*f.network).optimize();
  // Greedy single-host moves land within a modest factor of the optimum.
  const double optimal_pairwise = optimal.pairwise_similarity;
  const double planned_pairwise = total_edge_similarity(plan.result);
  EXPECT_LE(planned_pairwise, std::max(optimal_pairwise * 2.0, optimal_pairwise + 1.0));
}

TEST(UpgradePlanner, RejectsForeignAssignment) {
  Fixture f;
  Fixture g;
  const Assignment other = mono_assignment(*g.network);
  EXPECT_THROW((void)plan_upgrade(*f.network, other), InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::core
