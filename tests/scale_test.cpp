// Paper-scale ingest: every step of a cold optimize outside the solver is
// linear in network size.
//
// 50,000 hosts in the shape of examples/grids/paper_scale.json (degree 16,
// 4 services x 4 products).  Each step below took seconds to minutes while
// host names, JSON object keys or fixed assignments were found by linear
// scans, and takes well under a second per step in Release now, so the
// test's 60 s ctest TIMEOUT (tests/CMakeLists.txt) tells the two apart.
// The network, its decode and the pinned problem are built once and shared.
//
// Unoptimised code runs these steps about ten times slower: at 50,000
// hosts a gcc Debug build needed 25-27 s under `ctest -j 4`, too close to
// the bound.  So a build without NDEBUG uses 25,000 hosts.  Its quadratic
// steps would still need minutes, and the 200,000-key object is the same
// in every build.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/problem.hpp"
#include "core/serialization.hpp"
#include "runner/scenario.hpp"
#include "runner/workload.hpp"
#include "support/json.hpp"

namespace icsdiv {
namespace {

#ifdef NDEBUG
constexpr std::size_t kHosts = 50'000;
#else
constexpr std::size_t kHosts = 25'000;
#endif
constexpr std::size_t kServices = 4;

/// The workload is built once and shared by every case below.
const runner::WorkloadInstance& paper_scale_workload() {
  static const runner::WorkloadInstance workload = [] {
    runner::WorkloadParams params;
    params.hosts = kHosts;
    params.average_degree = 16;
    params.services = kServices;
    params.products_per_service = 4;
    params.seed = 2020;
    return runner::make_workload(params);
  }();
  return workload;
}

/// The network decoded from its own wire form, as a request would carry it.
const core::Network& decoded_network() {
  static const core::Network network = [] {
    const runner::WorkloadInstance& workload = paper_scale_workload();
    const std::string text = core::network_to_json(*workload.network).dump();
    return core::network_from_json(*workload.catalog, support::Json::parse(text));
  }();
  return network;
}

/// The `pinned` problem over the decoded network: the recipe pins the
/// first service of every fourth host.
const core::DiversificationProblem& pinned_problem() {
  static const core::DiversificationProblem problem(
      decoded_network(), runner::apply_constraint_recipe("pinned", decoded_network()));
  return problem;
}

TEST(PaperScale, NetworkRoundTripsThroughItsWireForm) {
  const core::Network& original = *paper_scale_workload().network;
  const core::Network& network = decoded_network();
  ASSERT_EQ(network.host_count(), kHosts);
  EXPECT_EQ(network.instance_count(), kHosts * kServices);
  EXPECT_EQ(network.topology().edges().size(), original.topology().edges().size());
  EXPECT_EQ(network.host_id("h0"), 0u);
  EXPECT_EQ(network.host_id(std::string("h").append(std::to_string(kHosts - 1))), kHosts - 1);
  EXPECT_FALSE(network.find_host(std::string("h").append(std::to_string(kHosts))).has_value());
}

TEST(PaperScale, PinnedProblemBuildsOneVariablePerSlot) {
  const core::Network& network = decoded_network();
  const core::DiversificationProblem& problem = pinned_problem();
  ASSERT_EQ(problem.variable_count(), kHosts * kServices);
  EXPECT_EQ(problem.labels_of(problem.variable_of(0, 0)).size(), 1u);
  EXPECT_EQ(problem.labels_of(problem.variable_of(0, 1)).size(), 4u);
  EXPECT_EQ(problem.labels_of(problem.variable_of(1, 0)).size(), 4u);
  EXPECT_EQ(problem.labels_of(problem.variable_of(kHosts - 4, 0)).size(), 1u);
  EXPECT_EQ(problem.mrf().edge_count(),
            network.topology().edges().size() * kServices);
}

TEST(PaperScale, AssignmentRoundTripsThroughItsWireForm) {
  const core::Network& network = decoded_network();
  const core::DiversificationProblem& problem = pinned_problem();
  std::vector<mrf::Label> labels(problem.variable_count());
  for (mrf::VariableId v = 0; v < labels.size(); ++v) {
    labels[v] = static_cast<mrf::Label>((v / kServices) % problem.labels_of(v).size());
  }
  const core::Assignment assignment = problem.decode(labels);
  const std::string text = assignment.to_json().dump();
  const core::Assignment restored =
      core::Assignment::from_json(network, support::Json::parse(text));
  EXPECT_TRUE(restored == assignment);
  EXPECT_EQ(problem.encode(restored), labels);
}

TEST(PaperScale, ObjectWithTwoHundredThousandKeysParses) {
  constexpr std::size_t kKeys = 200'000;
  std::string text = "{";
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += '}';
  const support::Json parsed = support::Json::parse(text);
  const support::JsonObject& object = parsed.as_object();
  ASSERT_EQ(object.size(), kKeys);
  EXPECT_EQ(object.begin()->first, "key0");
  EXPECT_EQ(object.at("key123456").as_integer(), 123'456);
  EXPECT_EQ(object.find("key200000"), nullptr);
  EXPECT_EQ(parsed.dump(), text);
}

}  // namespace
}  // namespace icsdiv
