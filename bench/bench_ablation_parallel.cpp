// A3 — decomposition/parallelism ablation (the §V-C "multi-level ...
// parallel computation" claim): one monolithic MRF vs the per-service
// decomposition, serial vs thread-pool parallel.  On a single-core host
// the parallel rows match the serial ones; on multi-core they show the
// speed-up the paper attributes to its GPU.
#include <iostream>

#include "bench_util.hpp"
#include "core/optimizer.hpp"
#include "mrf/trws.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

int main() {
  using namespace icsdiv;
  using support::TextTable;
  support::print_banner(std::cout, "Ablation A3 — decomposition and parallel solving");

  bench::ScalabilityParams params;
  params.hosts = bench::full_grid_requested() ? 2000 : 600;
  params.average_degree = 20.0;
  params.services = 10;
  const bench::ScalabilityInstance instance = bench::make_scalability_instance(params);
  const core::Optimizer optimizer(*instance.network);
  std::cout << "instance: " << params.hosts << " hosts, "
            << instance.network->topology().edge_count() << " links, " << params.services
            << " services; thread pool size " << support::global_thread_pool().size()
            << "\n\n";

  mrf::SolveOptions solve;
  solve.max_iterations = 50;
  solve.tolerance = 1e-6;
  TextTable table({"configuration", "energy", "seconds"});
  const auto run = [&](const char* name, const auto& energy_of) {
    support::Stopwatch watch;
    const double energy = energy_of();
    table.add_row({name, TextTable::num(energy, 3), TextTable::num(watch.seconds(), 3)});
  };
  const auto decomposed = [&](bool parallel) {
    core::OptimizeOptions options;
    options.solve = solve;
    options.parallel = parallel;
    return optimizer.optimize({}, options).solve.energy;
  };

  run("monolithic TRW-S", [&] {
    // One TRW-S solve over the whole MRF, every service at once.
    const core::DiversificationProblem problem(*instance.network);
    return mrf::TrwsSolver().solve(problem.mrf(), solve).energy;
  });
  run("decomposed TRW-S, serial", [&] { return decomposed(false); });
  run("decomposed TRW-S, parallel", [&] { return decomposed(true); });
  table.print(std::cout);
  std::cout << "\nThe decomposition is exact (identical energies): without intra-host\n"
               "constraints Eq. 1 splits into one independent MRF per service, so\n"
               "components can be solved concurrently and message memory stays bounded\n"
               "by one service's subproblem.\n";
  return 0;
}
