#include "core/report.hpp"

#include <algorithm>
#include <sstream>

#include "core/metrics.hpp"
#include "support/table.hpp"

namespace icsdiv::core {

namespace {

/// How many of the most-similar links a report lists.
constexpr std::size_t kRiskiestLinks = 5;

struct RiskyLink {
  HostId u;
  HostId v;
  double similarity;
};

std::vector<RiskyLink> riskiest_links(const Assignment& assignment, std::size_t count) {
  const SharedServices shared(assignment);
  std::vector<RiskyLink> links;
  for (const graph::Edge& link : assignment.network().topology().edges()) {
    double total = 0.0;
    shared.for_each(link.u, link.v, [&](double similarity, bool) { total += similarity; });
    if (total > 0.0) links.push_back(RiskyLink{link.u, link.v, total});
  }
  std::partial_sort(links.begin(), links.begin() + std::min(count, links.size()), links.end(),
                    [](const RiskyLink& a, const RiskyLink& b) {
                      return a.similarity > b.similarity;
                    });
  if (links.size() > count) links.resize(count);
  return links;
}

}  // namespace

std::string diversification_report(const Assignment& assignment,
                                   const ConstraintSet& constraints) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  std::ostringstream out;

  out << "Diversification report: " << network.host_count() << " hosts, "
      << network.topology().edge_count() << " links, " << network.instance_count()
      << " service instances\n";
  out << "  total edge similarity (Eq.3): "
      << support::TextTable::num(total_edge_similarity(assignment), 3) << "\n";
  out << "  average per link-service:     "
      << support::TextTable::num(average_edge_similarity(assignment), 3) << "\n";
  out << "  links with identical product: "
      << support::TextTable::num(identical_neighbor_ratio(assignment) * 100.0, 1) << "%\n";
  out << "  normalised effective richness: "
      << support::TextTable::num(normalized_effective_richness(assignment), 3) << "\n";

  out << "\nProduct distribution per service:\n";
  for (ServiceId service = 0; service < catalog.service_count(); ++service) {
    const auto histogram = product_histogram(assignment, service);
    if (histogram.empty()) continue;
    out << "  " << catalog.service(service).name << ":";
    for (const auto& [product, uses] : histogram) {
      out << " " << product << "=" << uses;
    }
    out << "  (effective richness "
        << support::TextTable::num(effective_richness(assignment, service), 2) << ")\n";
  }

  const auto risky = riskiest_links(assignment, kRiskiestLinks);
  if (!risky.empty()) {
    out << "\nRiskiest links (residual similarity):\n";
    for (const RiskyLink& link : risky) {
      out << "  " << network.host_name(link.u) << " -- " << network.host_name(link.v) << "  "
          << support::TextTable::num(link.similarity, 3) << "\n";
    }
  }

  if (!constraints.empty()) {
    const auto violations = constraints.violations(assignment);
    out << "\nConstraint compliance: "
        << (violations.empty() ? "all constraints satisfied"
                               : std::to_string(violations.size()) + " violation(s)")
        << "\n";
    for (const std::string& violation : violations) out << "  ! " << violation << "\n";
  }

  out << "\nFull assignment:\n" << assignment.to_string();
  return out.str();
}

}  // namespace icsdiv::core
