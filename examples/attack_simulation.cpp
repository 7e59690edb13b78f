// Attack-dynamics explorer on the Stuxnet case study: epidemic curves per
// assignment, attacker strategies, and the defender extension (§IX) — how
// detection-and-remediation capability trades off against diversification.
//
//   $ ./examples/attack_simulation [runs]
#include <cstdlib>
#include <iostream>

#include "casestudy/stuxnet_case.hpp"
#include "core/baselines.hpp"
#include "core/optimizer.hpp"
#include "sim/compiled.hpp"
#include "support/table.hpp"

namespace {

using namespace icsdiv;

/// ASCII spark-line of an epidemic curve (infected hosts over ticks).
std::string sparkline(const std::vector<std::size_t>& curve, std::size_t max_value) {
  static const char* levels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (std::size_t value : curve) {
    const std::size_t bucket =
        max_value == 0 ? 0 : std::min<std::size_t>(7, value * 8 / (max_value + 1));
    out += levels[bucket];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;

  const cases::StuxnetCaseStudy study;
  const core::Optimizer optimizer(study.network());
  const auto optimal = optimizer.optimize().assignment;
  const auto mono = core::mono_assignment(study.network());
  const auto entry = study.host("c1");
  const auto target = study.default_target();
  const std::size_t hosts = study.network().host_count();

  // --- Epidemic curves (one deterministic run each, 60 ticks).
  std::cout << "Epidemic curves from c1 (one run, 60 ticks, height = #infected/"
            << hosts << "):\n";
  for (const auto& [name, assignment] :
       {std::pair<const char*, const core::Assignment*>{"mono    ", &mono},
        {"optimal ", &optimal}}) {
    const sim::CompiledPropagation simulator(*assignment, sim::SimulationParams{});
    support::Rng rng(4);
    sim::SimState state;
    const auto curve = simulator.epidemic_curve(entry, 60, rng, state);
    std::cout << "  " << name << " |" << sparkline(curve, hosts) << "|  final "
              << curve.back() << " hosts\n";
  }

  // --- Attacker strategies.
  std::cout << "\nMTTC to t5 from c1 by attacker strategy (" << runs << " runs):\n";
  support::TextTable strategies({"assignment", "sophisticated", "uniform-random"});
  for (const auto& [name, assignment] :
       {std::pair<const char*, const core::Assignment*>{"optimal", &optimal},
        {"mono", &mono}}) {
    sim::SimulationParams greedy;
    sim::SimulationParams uniform;
    uniform.strategy = sim::AttackerStrategy::Uniform;
    const auto fast = sim::CompiledPropagation(*assignment, greedy).mttc(entry, target, runs, 1);
    const auto slow = sim::CompiledPropagation(*assignment, uniform).mttc(entry, target, runs, 1);
    strategies.add_row({name, support::TextTable::num(fast.mean, 1),
                        support::TextTable::num(slow.mean, 1)});
  }
  strategies.print(std::cout);

  // --- Defender sweep: what detection rate substitutes for diversity?
  std::cout << "\nDefender sweep (detection probability per infected host per tick;\n"
            << "MTTC in ticks, 'cens' = runs where the worm never reached t5):\n";
  support::TextTable defender({"detection p", "mono MTTC", "mono cens", "optimal MTTC",
                               "optimal cens"});
  for (const double detection : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    sim::SimulationParams params;
    params.detection_probability = detection;
    params.max_ticks = 2000;
    const auto m = sim::CompiledPropagation(mono, params).mttc(entry, target, runs, 2);
    const auto o = sim::CompiledPropagation(optimal, params).mttc(entry, target, runs, 2);
    defender.add_row({support::TextTable::num(detection, 2),
                      support::TextTable::num(m.mean, 1), std::to_string(m.censored),
                      support::TextTable::num(o.mean, 1), std::to_string(o.censored)});
  }
  defender.print(std::cout);
  std::cout << "\nReading: diversification and detection compound — on the diversified\n"
               "network even a modest defender eradicates most intrusions before they\n"
               "reach the control zone, while the mono-culture outruns slow defenders.\n";
  return 0;
}
