// A1 — solver ablation: TRW-S (the paper's choice) vs ICM vs the greedy
// colouring baseline [13] vs random/mono assignment, on random networks.
// Reports final energy, the TRW-S duality gap, and wall-clock.
#include <iostream>

#include "bench_util.hpp"
#include "core/baselines.hpp"
#include "core/optimizer.hpp"
#include "mrf/registry.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main() {
  using namespace icsdiv;
  using support::TextTable;
  support::print_banner(std::cout, "Ablation A1 — solvers on the diversification energy");

  bench::ScalabilityParams params;
  params.hosts = bench::full_grid_requested() ? 2000 : 400;
  params.average_degree = 16.0;
  params.services = 6;
  params.products_per_service = 4;
  const bench::ScalabilityInstance instance = bench::make_scalability_instance(params);
  const core::Network& network = *instance.network;
  std::cout << "instance: " << network.host_count() << " hosts, "
            << network.topology().edge_count() << " links, " << params.services
            << " services, " << params.products_per_service << " products each\n\n";

  const core::DiversificationProblem problem(network);
  const core::Optimizer optimizer(network);

  TextTable table({"method", "energy (Eq.1)", "lower bound", "gap", "seconds", "converged"});

  double trws_bound = 0.0;
  for (const std::string& name : mrf::SolverRegistry::instance().names()) {
    // Brute force is hopeless at this scale; the registry still lists it
    // for the small-instance tests and grids.
    if (name == "exhaustive") continue;
    core::OptimizeOptions options;
    options.solver = name;
    options.solve.max_iterations = 50;
    options.solve.tolerance = 1e-6;
    support::Stopwatch watch;
    const auto outcome = optimizer.optimize({}, options);
    const double seconds = watch.seconds();
    const bool has_bound = outcome.solve.lower_bound > -1e17;
    if (name == "trws") trws_bound = outcome.solve.lower_bound;
    table.add_row({name, TextTable::num(outcome.solve.energy, 3),
                   has_bound ? TextTable::num(outcome.solve.lower_bound, 3) : "-",
                   has_bound ? TextTable::num(outcome.solve.gap(), 4) : "-",
                   TextTable::num(seconds, 3), outcome.solve.converged ? "yes" : "no"});
  }

  // Assignment-level baselines evaluated under the same energy.
  support::Rng rng(11);
  for (const auto& [name, assignment] :
       {std::pair<std::string, core::Assignment>{"greedy colouring [13]",
                                                 core::greedy_coloring_assignment(network)},
        {"random", core::random_assignment(network, rng)},
        {"mono-culture", core::mono_assignment(network)}}) {
    table.add_row({name, TextTable::num(problem.energy_of(assignment), 3), "-", "-", "-", "-"});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape (paper §V-C): TRW-S reaches the lowest energy; ICM/greedy\n"
               "land close but above; random and mono are far off.  TRW-S's spanning-forest\n"
               "dual bound ("
            << TextTable::num(trws_bound, 1)
            << ") is exact on trees but loose on dense loopy graphs — near-optimality\n"
               "on small instances is established against brute force in the test suite.\n";
  return 0;
}
