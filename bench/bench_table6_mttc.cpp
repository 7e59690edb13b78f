// E6 — regenerates Table VI: Mean-Time-To-Compromise (in ticks) of the
// diversified case-study network under four assignments × five entry
// points, 1 000 simulation runs per cell (the paper's protocol), target t5.
#include <cstdlib>
#include <iostream>

#include "casestudy/stuxnet_case.hpp"
#include "core/baselines.hpp"
#include "core/optimizer.hpp"
#include "sim/compiled.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace icsdiv;
  using support::TextTable;
  support::print_banner(std::cout, "Table VI — MTTC (ticks) against different assignments");

  const std::size_t runs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;

  const cases::StuxnetCaseStudy study;
  const core::Optimizer optimizer(study.network());
  const auto optimal = optimizer.optimize().assignment;
  const auto host_constrained = optimizer.optimize(study.host_constraints()).assignment;
  const auto product_constrained = optimizer.optimize(study.product_constraints()).assignment;
  const auto mono = core::mono_assignment(study.network());

  const std::vector<std::pair<std::string, const core::Assignment*>> assignments{
      {"a^ (optimal)", &optimal},
      {"a^C1 (host constr.)", &host_constrained},
      {"a^C2 (product constr.)", &product_constrained},
      {"am (mono)", &mono}};
  const std::vector<core::HostId> entries = study.mttc_entries();
  const std::uint64_t seed = 2020;

  // Paper's Table VI, same row/column order, for side-by-side comparison.
  const double paper[4][5] = {{45.313, 37.561, 52.663, 52.491, 24.053},
                              {28.041, 16.812, 44.359, 48.472, 15.243},
                              {14.549, 15.817, 45.118, 46.257, 14.749},
                              {14.345, 12.654, 19.338, 18.865, 15.916}};

  std::vector<std::string> header{"assignment"};
  for (const core::HostId entry : entries) {
    header.push_back("from " + study.network().host_name(entry));
  }
  TextTable table(header);
  for (std::size_t r = 0; r < assignments.size(); ++r) {
    const sim::CompiledPropagation propagation(*assignments[r].second, sim::SimulationParams{});
    std::vector<std::string> ours{assignments[r].first};
    std::vector<std::string> reference{"  (paper)"};
    for (std::size_t e = 0; e < entries.size(); ++e) {
      // Distinct deterministic seed per entry — the historical formula,
      // so the table reproduces the seed-era numbers.
      const sim::MttcResult mttc =
          propagation.mttc(entries[e], study.default_target(), runs, seed + 1000003ULL * e);
      ours.push_back(TextTable::num(mttc.mean, 1) + " +-" +
                     TextTable::num(mttc.ci95_half_width, 1));
      reference.push_back(TextTable::num(paper[r][e], 1));
    }
    table.add_row(std::move(ours));
    table.add_row(std::move(reference));
    table.add_separator();
  }
  table.print(std::cout);
  std::cout << "\n" << runs << " runs per cell (paper: 1000); sophisticated attacker (best\n"
               "exploit per link per tick).  Shape check: the optimal assignment resists\n"
               "longest from the corporate entries (~3x the mono-culture), constrained\n"
               "optima fall between, mono falls fastest.\n";
  return 0;
}
