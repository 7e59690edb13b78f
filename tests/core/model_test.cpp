// Core domain model: catalog, network, assignment, constraints.
#include <gtest/gtest.h>

#include "core/assignment.hpp"
#include "core/constraints.hpp"
#include "core/network.hpp"
#include "core/product.hpp"

namespace icsdiv::core {
namespace {

struct Fixture {
  ProductCatalog catalog;
  ServiceId os;
  ServiceId wb;
  ProductId win;
  ProductId linux_os;
  ProductId ie;
  ProductId chrome;

  Fixture() {
    os = catalog.add_service("OS");
    wb = catalog.add_service("WB");
    win = catalog.add_product(os, "Win");
    linux_os = catalog.add_product(os, "Linux");
    ie = catalog.add_product(wb, "IE");
    chrome = catalog.add_product(wb, "Chrome");
    catalog.set_similarity(win, linux_os, 0.1);
    catalog.set_similarity(ie, chrome, 0.05);
  }
};

TEST(ProductCatalog, ServicesAndProducts) {
  Fixture f;
  EXPECT_EQ(f.catalog.service_count(), 2u);
  EXPECT_EQ(f.catalog.product_count(), 4u);
  EXPECT_EQ(f.catalog.service(f.os).name, "OS");
  EXPECT_EQ(f.catalog.product(f.chrome).name, "Chrome");
  EXPECT_EQ(f.catalog.product(f.chrome).service, f.wb);
  EXPECT_EQ(f.catalog.products_of(f.os).size(), 2u);
  EXPECT_EQ(f.catalog.service_id("WB"), f.wb);
  EXPECT_EQ(f.catalog.product_id(f.os, "Linux"), f.linux_os);
  EXPECT_THROW((void)f.catalog.service_id("DB"), NotFound);
  EXPECT_THROW((void)f.catalog.product_id(f.os, "IE"), NotFound);
}

TEST(ProductCatalog, DuplicateNamesRejected) {
  Fixture f;
  EXPECT_THROW(f.catalog.add_service("OS"), InvalidArgument);
  EXPECT_THROW(f.catalog.add_product(f.os, "Win"), InvalidArgument);
  // Same product name under a different service is fine.
  EXPECT_NO_THROW(f.catalog.add_product(f.wb, "Win"));
}

TEST(ProductCatalog, SimilarityRules) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.win, f.win), 1.0);
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.win, f.linux_os), 0.1);
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.linux_os, f.win), 0.1);
  // Unregistered pair defaults to zero.
  ProductCatalog fresh;
  const ServiceId s = fresh.add_service("S");
  const ProductId a = fresh.add_product(s, "a");
  const ProductId b = fresh.add_product(s, "b");
  EXPECT_DOUBLE_EQ(fresh.similarity(a, b), 0.0);
  // Cross-service similarity is undefined.
  EXPECT_THROW((void)f.catalog.similarity(f.win, f.ie), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.ie, 0.3), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.win, 0.3), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.linux_os, 1.5), InvalidArgument);
}

TEST(Network, HostsServicesLinks) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  const HostId h1 = net.add_host("h1");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie});
  net.add_service(h1, f.os, {f.win});
  EXPECT_TRUE(net.add_link(h0, h1));
  EXPECT_FALSE(net.add_link(h1, h0));  // idempotent

  EXPECT_EQ(net.host_count(), 2u);
  EXPECT_EQ(net.instance_count(), 3u);
  EXPECT_EQ(net.host_name(h0), "h0");
  EXPECT_EQ(net.host_id("h1"), h1);
  EXPECT_THROW((void)net.host_id("nope"), NotFound);
  EXPECT_TRUE(net.host_runs(h0, f.wb));
  EXPECT_FALSE(net.host_runs(h1, f.wb));
  EXPECT_EQ(net.service_slot(h0, f.wb).value(), 1u);
  EXPECT_EQ(net.services_of(h0).size(), 2u);
}

TEST(Network, ValidationErrors) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  EXPECT_THROW(net.add_host("h0"), InvalidArgument);
  EXPECT_THROW(net.add_service(h0, f.os, std::vector<ProductId>{}), InvalidArgument);
  EXPECT_THROW(net.add_service(h0, f.os, {f.ie}), InvalidArgument);  // wrong service
  EXPECT_THROW(net.add_service(h0, f.os, {f.win, f.win}), InvalidArgument);
  net.add_service(h0, f.os, {f.win});
  EXPECT_THROW(net.add_service(h0, f.os, {f.linux_os}), InvalidArgument);  // twice
}

TEST(Assignment, AssignAndQuery) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  Assignment assignment(net);
  EXPECT_FALSE(assignment.complete());
  EXPECT_FALSE(assignment.product_of(h0, f.os).has_value());

  assignment.assign(h0, f.os, f.linux_os);
  assignment.assign(h0, f.wb, f.chrome);
  EXPECT_TRUE(assignment.complete());
  EXPECT_EQ(assignment.product_of(h0, f.os).value(), f.linux_os);
  EXPECT_EQ(assignment.product_of(h0, f.wb).value(), f.chrome);
  EXPECT_NO_THROW(assignment.validate());
}

TEST(Assignment, RejectsNonCandidates) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});
  Assignment assignment(net);
  EXPECT_THROW(assignment.assign(h0, f.os, f.linux_os), InvalidArgument);
  EXPECT_THROW(assignment.assign(h0, f.wb, f.ie), NotFound);  // service absent
  EXPECT_THROW((void)assignment.product_of(h0, f.wb), NotFound);
}

TEST(Assignment, ToStringAndJsonRoundTrip) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("alpha");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});
  Assignment assignment(net);
  assignment.assign(h0, f.os, f.win);
  assignment.assign(h0, f.wb, f.chrome);

  EXPECT_EQ(assignment.to_string(), "alpha: OS=Win WB=Chrome\n");

  const Assignment restored = Assignment::from_json(net, assignment.to_json());
  EXPECT_EQ(restored, assignment);
}

TEST(Assignment, JsonPreservesUnassignedSlots) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});
  net.add_service(h0, f.wb, {f.ie});
  Assignment partial(net);
  partial.assign(h0, f.os, f.win);
  const Assignment restored = Assignment::from_json(net, partial.to_json());
  EXPECT_EQ(restored.product_of(h0, f.os).value(), f.win);
  EXPECT_FALSE(restored.product_of(h0, f.wb).has_value());
}

TEST(Constraints, FixedValidation) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});

  ConstraintSet constraints;
  constraints.fix(h0, f.os, f.win);
  EXPECT_NO_THROW(constraints.validate(net));
  EXPECT_THROW(constraints.fix(h0, f.os, f.win), InvalidArgument);  // double fix

  ConstraintSet not_candidate;
  not_candidate.fix(h0, f.os, f.linux_os);
  EXPECT_THROW(not_candidate.validate(net), InvalidArgument);

  ConstraintSet wrong_service;
  wrong_service.fix(h0, f.wb, f.ie);
  EXPECT_THROW(wrong_service.validate(net), InvalidArgument);
}

TEST(Constraints, PairSatisfaction) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  // If OS is Linux, WB must not be IE.
  PairConstraint no_ie_on_linux;
  no_ie_on_linux.host = kAllHosts;
  no_ie_on_linux.trigger_service = f.os;
  no_ie_on_linux.trigger_product = f.linux_os;
  no_ie_on_linux.partner_service = f.wb;
  no_ie_on_linux.partner_product = f.ie;
  no_ie_on_linux.polarity = ConstraintPolarity::Forbid;

  ConstraintSet constraints;
  constraints.add(no_ie_on_linux);
  EXPECT_NO_THROW(constraints.validate(net));

  Assignment bad(net);
  bad.assign(h0, f.os, f.linux_os);
  bad.assign(h0, f.wb, f.ie);
  EXPECT_FALSE(constraints.satisfied_by(bad));
  EXPECT_EQ(constraints.violations(bad).size(), 1u);

  Assignment good(net);
  good.assign(h0, f.os, f.linux_os);
  good.assign(h0, f.wb, f.chrome);
  EXPECT_TRUE(constraints.satisfied_by(good));

  // Trigger not firing: anything goes.
  Assignment untriggered(net);
  untriggered.assign(h0, f.os, f.win);
  untriggered.assign(h0, f.wb, f.ie);
  EXPECT_TRUE(constraints.satisfied_by(untriggered));
}

TEST(Constraints, RequirePolarity) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  PairConstraint win_needs_ie;
  win_needs_ie.host = h0;
  win_needs_ie.trigger_service = f.os;
  win_needs_ie.trigger_product = f.win;
  win_needs_ie.partner_service = f.wb;
  win_needs_ie.partner_product = f.ie;
  win_needs_ie.polarity = ConstraintPolarity::Require;

  ConstraintSet constraints;
  constraints.add(win_needs_ie);

  Assignment bad(net);
  bad.assign(h0, f.os, f.win);
  bad.assign(h0, f.wb, f.chrome);
  EXPECT_FALSE(constraints.satisfied_by(bad));

  Assignment good(net);
  good.assign(h0, f.os, f.win);
  good.assign(h0, f.wb, f.ie);
  EXPECT_TRUE(constraints.satisfied_by(good));
}

TEST(Constraints, SameServicePairRejected) {
  Fixture f;
  PairConstraint bad;
  bad.trigger_service = f.os;
  bad.partner_service = f.os;
  ConstraintSet constraints;
  EXPECT_THROW(constraints.add(bad), InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::core
