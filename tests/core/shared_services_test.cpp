// Exact-output pins for every per-link similarity walk on an irregular
// network: the d_bn attack DAG's edge rates, the worm simulator's channel
// pools, the Eq. 3 similarity sums, the identical-neighbour ratio and the
// diversification report.  The generated workloads and golden grids give
// every host every service, in one order, with every slot assigned; this
// fixture does none of that.  Hosts run 1–3 of 3 services in shuffled
// slot order, about a fifth of the slots are unassigned, the services
// offer 5, 2 and 3 products, and one product pair has no registered
// similarity.  The constants below were recorded at commit 5f911aa, whose
// walks looked each (host, service) up by a linear slot scan; every walk
// now goes through core::SharedServices, which the last two cases check
// directly.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bayes/compiled.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "sim/compiled.hpp"
#include "support/rng.hpp"

namespace icsdiv::core {
namespace {

constexpr std::size_t kHosts = 40;
constexpr std::size_t kExtraLinks = 24;
constexpr std::array<std::size_t, 3> kProductsPerService{5, 2, 3};
constexpr std::array<std::string_view, 3> kServiceNames{"OS", "WB", "DB"};

/// The irregular network and a partial assignment over it.  With
/// `unused_product`, the OS service first registers a product that no host
/// may run (with a similarity to one of the others), which widens the OS
/// block and shifts every other OS product's index by one; every random
/// draw is the same either way.
struct IrregularFixture {
  ProductCatalog catalog;
  std::unique_ptr<Network> network;
  std::unique_ptr<Assignment> assignment;

  explicit IrregularFixture(bool unused_product) {
    std::array<std::vector<ProductId>, 3> products;
    for (std::size_t s = 0; s < kServiceNames.size(); ++s) {
      const ServiceId service = catalog.add_service(std::string(kServiceNames[s]));
      ProductId unused = 0;
      if (unused_product && s == 0) unused = catalog.add_product(service, "Unused");
      for (std::size_t p = 0; p < kProductsPerService[s]; ++p) {
        products[s].push_back(
            catalog.add_product(service, std::string(kServiceNames[s]).append(std::to_string(p))));
      }
      if (unused_product && s == 0) catalog.set_similarity(unused, products[s][0], 0.875);
      for (std::size_t i = 0; i < products[s].size(); ++i) {
        for (std::size_t j = i + 1; j < products[s].size(); ++j) {
          if (s == 0 && i == 1 && j == 3) continue;  // the pair with no registered value
          const double value = 0.03 + 0.91 * static_cast<double>((7 * i + 13 * j + 5 * s) % 17) /
                                          17.0;
          catalog.set_similarity(products[s][i], products[s][j], value);
        }
      }
    }

    network = std::make_unique<Network>(catalog);
    support::Rng rng(20260423);
    for (std::size_t h = 0; h < kHosts; ++h) {
      const HostId host = network->add_host(std::string("h").append(std::to_string(h)));
      std::array<ServiceId, 3> order{0, 1, 2};
      rng.shuffle(std::span<ServiceId>(order));
      const std::size_t runs = 1 + rng.index(3);
      for (std::size_t k = 0; k < runs; ++k) {
        network->add_service(host, order[k], products[order[k]]);
      }
    }
    // A random tree keeps every host reachable; the extra links add cycles
    // and uneven degrees.
    for (HostId h = 1; h < kHosts; ++h) network->add_link(h, static_cast<HostId>(rng.index(h)));
    for (std::size_t e = 0; e < kExtraLinks; ++e) {
      const auto a = static_cast<HostId>(rng.index(kHosts));
      const auto b = static_cast<HostId>(rng.index(kHosts));
      if (a != b) network->add_link(a, b);
    }

    assignment = std::make_unique<Assignment>(*network);
    for (HostId host = 0; host < kHosts; ++host) {
      for (const ServiceInstance& instance : network->services_of(host)) {
        const std::size_t pick = rng.index(5 * products[instance.service].size());
        if (pick < products[instance.service].size()) continue;  // a fifth stay unassigned
        assignment->assign(host, instance.service,
                           products[instance.service][pick % products[instance.service].size()]);
      }
    }
  }
};

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Hash of the bit patterns of every DAG-edge rate, in DAG edge order.
std::uint64_t rate_hash(const bayes::CompiledReliability& compiled) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t e = 0; e < compiled.edge_count(); ++e) {
    const std::uint64_t word = bits(compiled.edge_rate(e));
    h = fnv1a(std::string_view(reinterpret_cast<const char*>(&word), sizeof word), h);
  }
  return h;
}

/// Drops the report's normalised-richness line: it divides by the number of
/// products each service offers, which an unused product changes.
std::string without_richness(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("normalised effective richness") == std::string::npos) out.append(line) += '\n';
  }
  return out;
}

struct Pins {
  std::size_t dag_edges_entry0;
  std::uint64_t rates_entry0;
  std::size_t dag_edges_entry17;
  std::uint64_t rates_entry17;
  std::uint64_t channels;
  std::uint64_t total_similarity;
  std::uint64_t average_similarity;
  std::uint64_t identical_ratio;
  std::uint64_t report;
};

/// The pins in the form of kRecorded, so a failure prints what to compare.
std::string row(const Pins& p) {
  std::ostringstream out;
  out << "{" << p.dag_edges_entry0 << ", " << p.rates_entry0 << "ull, " << p.dag_edges_entry17
      << ", " << p.rates_entry17 << "ull, " << p.channels << "ull, " << p.total_similarity
      << "ull, " << p.average_similarity << "ull, " << p.identical_ratio << "ull, " << p.report
      << "ull}";
  return out.str();
}

Pins measure(const IrregularFixture& f, bool whole_report) {
  const Assignment& assignment = *f.assignment;
  const bayes::PropagationModel bn_model{/*p_avg=*/0.07, /*similarity_weight=*/0.11,
                                         /*consider_similarity=*/true};
  const bayes::CompiledReliability entry0(assignment, 0, bn_model);
  const bayes::CompiledReliability entry17(assignment, 17, bn_model);
  const sim::PropagationChannels channels(assignment, sim::SimulationParams{}.model);
  const std::string report = diversification_report(assignment);
  return Pins{entry0.edge_count(),
              rate_hash(entry0),
              entry17.edge_count(),
              rate_hash(entry17),
              fnv1a(channels.serialize()),
              bits(total_edge_similarity(assignment)),
              bits(average_edge_similarity(assignment)),
              bits(identical_neighbor_ratio(assignment)),
              fnv1a(whole_report ? report : without_richness(report))};
}

constexpr Pins kRecorded{61, 10670435573717213411ull, 61, 13197320790080915819ull,
                         1785584913444640736ull, 4626946598223545400ull,
                         4602009460639794592ull, 4600308503579294019ull,
                         7051179115774305852ull};

TEST(SharedServicesPin, IrregularNetworkMatchesRecordedBits) {
  const IrregularFixture f(/*unused_product=*/false);
  // The fixture has the shapes it claims: partial hosts, shuffled slots,
  // unassigned slots.
  ASSERT_FALSE(f.assignment->complete());
  ASSERT_LT(f.network->instance_count(), 3 * kHosts);

  const Pins actual = measure(f, /*whole_report=*/true);
  SCOPED_TRACE("actual " + row(actual));
  EXPECT_EQ(actual.dag_edges_entry0, kRecorded.dag_edges_entry0);
  EXPECT_EQ(actual.rates_entry0, kRecorded.rates_entry0);
  EXPECT_EQ(actual.dag_edges_entry17, kRecorded.dag_edges_entry17);
  EXPECT_EQ(actual.rates_entry17, kRecorded.rates_entry17);
  EXPECT_EQ(actual.channels, kRecorded.channels);
  EXPECT_EQ(actual.total_similarity, kRecorded.total_similarity);
  EXPECT_EQ(actual.average_similarity, kRecorded.average_similarity);
  EXPECT_EQ(actual.identical_ratio, kRecorded.identical_ratio);
  EXPECT_EQ(actual.report, kRecorded.report);
}

TEST(SharedServicesPin, AProductNoHostMayRunChangesNoPin) {
  const IrregularFixture base(/*unused_product=*/false);
  const IrregularFixture widened(/*unused_product=*/true);
  const Pins a = measure(base, /*whole_report=*/false);
  const Pins b = measure(widened, /*whole_report=*/false);
  EXPECT_EQ(row(a), row(b));
}

/// The bits of effective_richness per service, then of
/// normalized_effective_richness.
std::array<std::uint64_t, 4> richness_bits(const Assignment& assignment) {
  std::array<std::uint64_t, 4> out{};
  for (ServiceId s = 0; s < 3; ++s) out[s] = bits(effective_richness(assignment, s));
  out[3] = bits(normalized_effective_richness(assignment));
  return out;
}

std::string richness_row(const std::array<std::uint64_t, 4>& b) {
  std::ostringstream out;
  out << "{" << b[0] << "ull, " << b[1] << "ull, " << b[2] << "ull, " << b[3] << "ull}";
  return out.str();
}

TEST(SharedServicesPin, RichnessMatchesRecordedBits) {
  // Entropies are summed in product-name order; these bits were recorded
  // while the counts were still kept in a map keyed by product name.
  const IrregularFixture base(/*unused_product=*/false);
  const auto actual = richness_bits(*base.assignment);
  EXPECT_EQ(richness_row(actual),
            richness_row({4617070044720782236ull, 4611190089128881104ull, 4613262378233288679ull,
                          4606585994413063133ull}));

  // An unused OS product changes no per-service richness; the normalised
  // value divides the OS term by six products instead of five.
  const IrregularFixture widened(/*unused_product=*/true);
  const auto widened_bits = richness_bits(*widened.assignment);
  EXPECT_EQ(richness_row(widened_bits),
            richness_row({4617070044720782236ull, 4611190089128881104ull, 4613262378233288679ull,
                          4606107414298094748ull}));

  // A service some host runs with no slot assigned counts as richness 0;
  // a service no host runs is left out of the average.
  ProductCatalog catalog;
  const ServiceId os = catalog.add_service("OS");
  const ServiceId db = catalog.add_service("DB");
  const ServiceId unrun = catalog.add_service("Unrun");
  (void)catalog.add_product(unrun, "idle");
  std::vector<ProductId> os_products;
  for (const char* name : {"zeta", "alpha", "mu"}) {
    os_products.push_back(catalog.add_product(os, name));
  }
  const ProductId db_product = catalog.add_product(db, "only");
  Network network(catalog);
  for (std::size_t h = 0; h < 7; ++h) {
    const HostId host = network.add_host(std::string("h").append(std::to_string(h)));
    network.add_service(host, db, {db_product});
    network.add_service(host, os, os_products);
  }
  Assignment assignment(network);
  for (HostId host = 0; host < 7; ++host) assignment.assign(host, os, os_products[host % 3]);
  EXPECT_EQ(bits(effective_richness(assignment, db)), bits(0.0));
  EXPECT_EQ(bits(effective_richness(assignment, unrun)), bits(0.0));
  EXPECT_EQ(bits(effective_richness(assignment, os)), 4613806568533527902ull);
  EXPECT_EQ(bits(normalized_effective_richness(assignment)), 4602503819562586579ull);
}

TEST(SharedServices, WalksUsSlotOrderAndRejectsUnknownHosts) {
  const IrregularFixture f(/*unused_product=*/false);
  const SharedServices shared(*f.assignment);
  // Every link's visits, in u's slot order, against a direct lookup.
  for (const graph::Edge& link : f.network->topology().edges()) {
    std::vector<double> expected;
    for (const ServiceInstance& instance : f.network->services_of(link.u)) {
      if (!f.network->host_runs(link.v, instance.service)) continue;
      const auto a = f.assignment->product_of(link.u, instance.service);
      const auto b = f.assignment->product_of(link.v, instance.service);
      if (a && b) expected.push_back(f.catalog.similarity(*a, *b));
    }
    std::vector<double> visited;
    shared.for_each(link.u, link.v,
                    [&](double similarity, bool) { visited.push_back(similarity); });
    EXPECT_EQ(visited, expected) << link.u << "--" << link.v;
  }
  const auto nothing = [](double, bool) {};
  EXPECT_THROW(shared.for_each(0, kHosts, nothing), InvalidArgument);
  EXPECT_THROW(shared.for_each(kHosts, 0, nothing), InvalidArgument);
}

TEST(SharedServices, RejectsAnAssignmentOlderThanItsNetwork) {
  IrregularFixture f(/*unused_product=*/false);
  f.network->add_host("late");
  EXPECT_THROW(SharedServices{*f.assignment}, InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::core
