// Least attacking effort (adversarial-perspective metric).
#include "bayes/least_effort.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"

namespace icsdiv::bayes {
namespace {

/// Path network h0—h1—h2—h3—h4 with one service, products a/b/c.
struct PathFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;
  core::ProductId c;

  PathFixture() {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "a");
    b = catalog.add_product(service, "b");
    c = catalog.add_product(service, "c");
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < 5; ++i) {
      network->add_host(std::string("h").append(std::to_string(i)));
      network->add_service(static_cast<core::HostId>(i), service, {a, b, c});
    }
    for (int i = 0; i < 4; ++i) {
      network->add_link(static_cast<core::HostId>(i), static_cast<core::HostId>(i + 1));
    }
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    core::HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

TEST(LeastEffort, MonoCultureNeedsOneExploit) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(mono, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{f.a}));
  EXPECT_EQ(result.host_order.front(), 0u);
  EXPECT_EQ(result.host_order.back(), 4u);
}

TEST(LeastEffort, AlternatingNeedsTwo) {
  PathFixture f;
  const auto alternating = f.assign({f.a, f.b, f.a, f.b, f.a});
  const auto result = least_attack_effort(alternating, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 2u);
}

TEST(LeastEffort, FullyDiversePathNeedsOnePerHop) {
  PathFixture f;
  // h1..h4 use three distinct products (c appears twice non-adjacently);
  // the attacker still needs all three.
  const auto diverse = f.assign({f.a, f.b, f.c, f.b, f.c});
  const auto result = least_attack_effort(diverse, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 2u);  // b and c suffice (entry is free)
}

TEST(LeastEffort, EntryProductIsFree) {
  PathFixture f;
  // Entry runs a unique product the attacker never needs to exploit.
  const auto assignment = f.assign({f.c, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(assignment, 0, 4);
  EXPECT_EQ(*result.exploit_count, 1u);
}

TEST(LeastEffort, EntryEqualsTarget) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(mono, 2, 2);
  EXPECT_EQ(*result.exploit_count, 0u);
}

TEST(LeastEffort, UnreachableTarget) {
  PathFixture f;
  core::Network& net = *f.network;
  const core::HostId island = net.add_host("island");
  net.add_service(island, f.service, {f.a});
  core::Assignment assignment(net);
  for (core::HostId h = 0; h <= island; ++h) assignment.assign(h, f.service, f.a);
  const auto result = least_attack_effort(assignment, 0, island);
  EXPECT_FALSE(result.exploit_count.has_value());
}

TEST(LeastEffort, PrefersCheapDetour) {
  // Diamond: top route needs 2 products, bottom route reuses one.
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("S");
  const auto a = catalog.add_product(service, "a");
  const auto b = catalog.add_product(service, "b");
  const auto c = catalog.add_product(service, "c");
  core::Network network(catalog);
  for (const char* name : {"entry", "top", "bottom", "target"}) network.add_host(name);
  for (core::HostId h = 0; h < 4; ++h) network.add_service(h, service, {a, b, c});
  network.add_link(0, 1);
  network.add_link(0, 2);
  network.add_link(1, 3);
  network.add_link(2, 3);

  core::Assignment assignment(network);
  assignment.assign(0, service, a);
  assignment.assign(1, service, b);  // top detour product
  assignment.assign(2, service, c);  // bottom
  assignment.assign(3, service, c);  // target matches bottom
  const auto result = least_attack_effort(assignment, 0, 3);
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{c}));
  // Witness goes through the bottom host.
  EXPECT_EQ(result.host_order, (std::vector<core::HostId>{0, 2, 3}));
}

TEST(LeastEffort, MultiServiceHostsOfferChoices) {
  // A host with two services can be compromised through either product.
  core::ProductCatalog catalog;
  const auto s1 = catalog.add_service("s1");
  const auto s2 = catalog.add_service("s2");
  const auto p1 = catalog.add_product(s1, "p1");
  const auto p2 = catalog.add_product(s2, "p2");
  core::Network network(catalog);
  network.add_host("entry");
  network.add_host("mid");
  network.add_host("target");
  network.add_service(0, s1, {p1});
  network.add_service(1, s1, {p1});
  network.add_service(1, s2, {p2});
  network.add_service(2, s2, {p2});
  network.add_link(0, 1);
  network.add_link(1, 2);

  core::Assignment assignment(network);
  assignment.assign(0, s1, p1);
  assignment.assign(1, s1, p1);
  assignment.assign(1, s2, p2);
  assignment.assign(2, s2, p2);
  // Exploiting p2 alone covers both mid and target.
  const auto result = least_attack_effort(assignment, 0, 2);
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{p2}));
}

TEST(LeastEffort, TooManyProductsRaisesInfeasible) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.b, f.c, f.a, f.b});
  EXPECT_THROW((void)least_attack_effort(mono, 0, 4, /*max_distinct_products=*/2),
               Infeasible);
}

}  // namespace
}  // namespace icsdiv::bayes
