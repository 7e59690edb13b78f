// The paper's full workflow on the Stuxnet-inspired case study (§VII):
//
//   1. build the IT/OT-converged plant of Fig. 3 with Table IV's products,
//   2. compute α̂ (unconstrained), α̂_C1 (host constraints) and α̂_C2
//      (host + product constraints),
//   3. evaluate all of them — plus random and mono baselines — with the
//      BN diversity metric d_bn (Table V) and MTTC simulation (Table VI).
//
//   $ ./examples/ics_case_study [runs-per-cell]
#include <cstdlib>
#include <iostream>

#include "bayes/metric.hpp"
#include "casestudy/stuxnet_case.hpp"
#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "sim/compiled.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace icsdiv;

  const std::size_t runs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
  sim::SimulationParams sim_params;
  if (argc > 2) sim_params.model.p_avg = std::strtod(argv[2], nullptr);
  if (argc > 3) sim_params.model.similarity_weight = std::strtod(argv[3], nullptr);

  const cases::StuxnetCaseStudy study;
  const core::Network& network = study.network();
  std::cout << "Case study: " << network.host_count() << " hosts, "
            << network.topology().edge_count() << " links, "
            << network.instance_count() << " service instances\n";

  // --- Optimal assignments under the three constraint regimes.
  const core::Optimizer optimizer(network);
  const auto unconstrained = optimizer.optimize();
  const auto host_constrained = optimizer.optimize(study.host_constraints());
  const auto product_constrained = optimizer.optimize(study.product_constraints());

  support::Rng rng(7);
  const core::Assignment random = core::random_assignment(network, rng);
  const core::Assignment mono = core::mono_assignment(network);

  std::cout << "\nOptimal assignment alpha-hat (Fig. 4a analogue):\n"
            << unconstrained.assignment.to_string();

  // --- Table V analogue: BN diversity metric.
  const core::HostId entry = study.default_entry();
  const core::HostId target = study.default_target();

  support::TextTable table5({"assignment", "log10 P'", "log10 P", "d_bn", "edge sim"});
  const auto metric_row = [&](const char* name, const core::Assignment& assignment) {
    const auto metric = bayes::bn_diversity_metric(assignment, entry, target);
    table5.add_row({name, support::TextTable::num(metric.log10_without(), 3),
                    support::TextTable::num(metric.log10_with(), 3),
                    support::TextTable::num(metric.d_bn, 5),
                    support::TextTable::num(core::total_edge_similarity(assignment), 2)});
  };
  metric_row("optimal", unconstrained.assignment);
  metric_row("host-constrained", host_constrained.assignment);
  metric_row("product-constrained", product_constrained.assignment);
  metric_row("random", random);
  metric_row("mono", mono);
  std::cout << "\nDiversity metric d_bn (entry " << network.host_name(entry) << ", target "
            << network.host_name(target) << "):\n";
  table5.print(std::cout);

  // --- Table VI analogue: MTTC from five entry points.
  const std::vector<std::pair<const char*, const core::Assignment*>> assignments{
      {"optimal", &unconstrained.assignment},
      {"host-constrained", &host_constrained.assignment},
      {"product-constrained", &product_constrained.assignment},
      {"mono", &mono}};
  const std::vector<core::HostId> entries = study.mttc_entries();
  const std::uint64_t seed = 2020;

  std::vector<std::string> header{"assignment"};
  for (core::HostId host : entries) header.push_back("from " + network.host_name(host));
  support::TextTable table6(header);
  for (const auto& [name, assignment] : assignments) {
    const sim::CompiledPropagation propagation(*assignment, sim_params);
    std::vector<std::string> cells{name};
    for (std::size_t e = 0; e < entries.size(); ++e) {
      // Distinct deterministic seed per entry (Table VI's formula).
      const sim::MttcResult mttc =
          propagation.mttc(entries[e], target, runs, seed + 1000003ULL * e);
      cells.push_back(support::TextTable::num(mttc.mean, 1) + " ±" +
                      support::TextTable::num(mttc.ci95_half_width, 1));
    }
    table6.add_row(std::move(cells));
  }
  std::cout << "\nMTTC in ticks (" << runs << " runs per cell, target "
            << network.host_name(target) << "):\n";
  table6.print(std::cout);

  std::cout << "\nExpected shape (paper Tables V & VI): optimal > host-constrained\n"
               ">= product-constrained > random > mono on d_bn; optimal needs the\n"
               "most ticks to compromise, mono the fewest.\n";
  return 0;
}
