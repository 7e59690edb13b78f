#include "runner/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bayes/compiled.hpp"
#include "mrf/registry.hpp"

namespace icsdiv::runner {

namespace {

core::ConstraintSet pinned_recipe(const core::Network& network) {
  core::ConstraintSet constraints;
  for (core::HostId host = 0; host < network.host_count(); host += 4) {
    const auto services = network.services_of(host);
    if (services.empty()) continue;
    constraints.fix(host, services[0].service, services[0].candidates[0]);
  }
  return constraints;
}

core::ConstraintSet forbidden_pair_recipe(const core::Network& network) {
  // Global ⟨*, s0, s1, +p, −q⟩ over the first two services that appear
  // with their first candidates; degenerates to "none" when no host runs
  // two services.
  core::ConstraintSet constraints;
  for (core::HostId host = 0; host < network.host_count(); ++host) {
    const auto services = network.services_of(host);
    if (services.size() < 2) continue;
    core::PairConstraint pair;
    pair.host = core::kAllHosts;
    pair.trigger_service = services[0].service;
    pair.trigger_product = services[0].candidates[0];
    pair.partner_service = services[1].service;
    pair.partner_product = services[1].candidates[0];
    pair.polarity = core::ConstraintPolarity::Forbid;
    constraints.add(pair);
    break;
  }
  return constraints;
}

}  // namespace

core::ConstraintSet apply_constraint_recipe(const std::string& recipe,
                                            const core::Network& network) {
  if (recipe.empty() || recipe == "none") return {};
  if (recipe == "pinned") return pinned_recipe(network);
  if (recipe == "forbidden-pair") return forbidden_pair_recipe(network);
  throw InvalidArgument("unknown constraint recipe: " + recipe +
                        " (known: none, pinned, forbidden-pair)");
}

std::vector<std::string> constraint_recipe_names() {
  return {"none", "pinned", "forbidden-pair"};
}

std::vector<ScenarioSpec> expand_validated(const ScenarioGrid& grid) {
  for (const std::string& solver : grid.solvers) {
    if (!mrf::SolverRegistry::instance().contains(solver)) {
      throw InvalidArgument("unknown solver in grid: " + solver + " (registered: " +
                            mrf::SolverRegistry::instance().names_joined(", ") + ")");
    }
  }
  const std::vector<std::string> recipes = constraint_recipe_names();
  for (const std::string& recipe : grid.constraints) {
    if (std::find(recipes.begin(), recipes.end(), recipe) == recipes.end()) {
      throw InvalidArgument("unknown constraint recipe in grid: " + recipe);
    }
  }
  std::vector<ScenarioSpec> specs = grid.expand();
  require(!specs.empty(), "batch", "grid expands to zero scenarios");
  return specs;
}

std::vector<std::string> attacker_strategy_names() { return {"sophisticated", "uniform"}; }

std::string ScenarioSpec::derive_name() const {
  std::ostringstream out;
  out << "h" << workload.hosts << "-d" << workload.average_degree << "-s" << workload.services
      << "-p" << workload.products_per_service << "-" << solver << "-" << constraints << "-seed"
      << seed;
  if (attack) out << "-" << attack->strategy << "-det" << attack->detection;
  return out.str();
}

std::size_t ScenarioGrid::cell_count() const {
  std::size_t count = 1;
  const auto multiply = [&count](std::size_t axis) {
    std::size_t product = 0;
    if (__builtin_mul_overflow(count, axis, &product)) {
      throw Infeasible("ScenarioGrid::cell_count: axis product overflows size_t");
    }
    count = product;
  };
  multiply(hosts.size());
  multiply(degrees.size());
  multiply(services.size());
  multiply(products_per_service.size());
  multiply(solvers.size());
  multiply(constraints.size());
  multiply(seeds.size());
  if (attack) {
    multiply(attack->strategies.size());
    multiply(attack->detections.size());
  }
  if (count > max_cells) {
    throw Infeasible("ScenarioGrid::cell_count: grid expands to " + std::to_string(count) +
                     " cells, above the configured cap of " + std::to_string(max_cells) +
                     " (raise max_cells to run it anyway)");
  }
  return count;
}

std::vector<ScenarioSpec> ScenarioGrid::expand() const {
  std::vector<ScenarioSpec> specs;
  specs.reserve(cell_count());
  // The attack axes expand innermost; a solve-only grid contributes the
  // single no-attack combination.
  const std::vector<std::string> strategies =
      attack ? attack->strategies : std::vector<std::string>{""};
  const std::vector<double> detections = attack ? attack->detections : std::vector<double>{0.0};
  for (const std::size_t host_count : hosts) {
    for (const double degree : degrees) {
      for (const std::size_t service_count : services) {
        for (const std::size_t product_count : products_per_service) {
          for (const std::string& solver_name : solvers) {
            for (const std::string& recipe : constraints) {
              for (const std::uint64_t seed : seeds) {
                for (const std::string& strategy : strategies) {
                  for (const double detection : detections) {
                    ScenarioSpec spec;
                    spec.workload.hosts = host_count;
                    spec.workload.average_degree = degree;
                    spec.workload.services = service_count;
                    spec.workload.products_per_service = product_count;
                    spec.workload.similar_pair_fraction = similar_pair_fraction;
                    spec.workload.max_similarity = max_similarity;
                    spec.solver = solver_name;
                    spec.constraints = recipe;
                    spec.seed = seed;
                    spec.solve = solve;
                    if (attack) {
                      AttackSpec cell;
                      cell.entries = attack->entries;
                      cell.target = attack->target;
                      cell.strategy = strategy;
                      cell.detection = detection;
                      cell.runs = attack->runs;
                      cell.max_ticks = attack->max_ticks;
                      cell.seed = attack->seed;
                      spec.attack = std::move(cell);
                    }
                    spec.metrics = metrics;
                    spec.name = spec.derive_name();
                    specs.push_back(std::move(spec));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

namespace {

/// Accepts a scalar or an array of scalars; returns the values as doubles.
std::vector<double> number_axis(const support::Json& value, const std::string& key) {
  std::vector<double> result;
  if (value.is_array()) {
    for (const support::Json& element : value.as_array()) result.push_back(element.as_double());
  } else {
    result.push_back(value.as_double());
  }
  require(!result.empty(), "ScenarioGrid::from_json", "empty axis: " + key);
  return result;
}

std::vector<std::string> string_axis(const support::Json& value, const std::string& key) {
  std::vector<std::string> result;
  if (value.is_array()) {
    for (const support::Json& element : value.as_array()) result.push_back(element.as_string());
  } else {
    result.push_back(value.as_string());
  }
  require(!result.empty(), "ScenarioGrid::from_json", "empty axis: " + key);
  return result;
}

/// Integer axis values parse exactly (the JSON layer keeps int64 exact);
/// doubles like 100.9 would otherwise truncate silently.
template <typename T>
std::vector<T> integer_axis(const support::Json& value, const std::string& key) {
  std::vector<T> result;
  const auto append = [&](const support::Json& element) {
    const std::int64_t exact = element.as_integer();  // throws on 100.9 etc.
    require(exact >= 0, "ScenarioGrid::from_json",
            "axis values must be non-negative: " + key);
    result.push_back(static_cast<T>(exact));
  };
  if (value.is_array()) {
    for (const support::Json& element : value.as_array()) append(element);
  } else {
    append(value);
  }
  require(!result.empty(), "ScenarioGrid::from_json", "empty axis: " + key);
  return result;
}

/// Single non-negative integer (exact; no silent wrap of negatives).
std::uint64_t non_negative_integer(const support::Json& value, const std::string& key) {
  const std::int64_t exact = value.as_integer();
  require(exact >= 0, "ScenarioGrid::from_json", "value must be non-negative: " + key);
  return static_cast<std::uint64_t>(exact);
}

AttackGrid attack_grid_from_json(const support::Json& json) {
  AttackGrid attack;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "entries") {
      attack.entries = integer_axis<core::HostId>(value, "attack.entries");
    } else if (key == "target") {
      attack.target = static_cast<core::HostId>(non_negative_integer(value, "attack.target"));
    } else if (key == "strategies") {
      attack.strategies = string_axis(value, "attack.strategies");
      const auto known = attacker_strategy_names();
      for (const std::string& strategy : attack.strategies) {
        require(std::find(known.begin(), known.end(), strategy) != known.end(),
                "ScenarioGrid::from_json",
                "unknown attacker strategy: " + strategy + " (known: sophisticated, uniform)");
      }
    } else if (key == "detections") {
      attack.detections = number_axis(value, "attack.detections");
      for (const double detection : attack.detections) {
        require(std::isfinite(detection) && detection >= 0.0 && detection <= 1.0,
                "ScenarioGrid::from_json", "attack.detections values must be in [0,1]");
      }
    } else if (key == "runs") {
      attack.runs = static_cast<std::size_t>(non_negative_integer(value, "attack.runs"));
      require(attack.runs > 0, "ScenarioGrid::from_json", "attack.runs must be positive");
    } else if (key == "max_ticks") {
      attack.max_ticks =
          static_cast<std::size_t>(non_negative_integer(value, "attack.max_ticks"));
      require(attack.max_ticks > 0, "ScenarioGrid::from_json",
              "attack.max_ticks must be positive");
    } else if (key == "seed") {
      attack.seed = non_negative_integer(value, "attack.seed");
    } else {
      throw InvalidArgument("ScenarioGrid::from_json: unknown key: attack." + key);
    }
  }
  return attack;
}

MetricsSpec metrics_spec_from_json(const support::Json& json) {
  MetricsSpec metrics;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "entries") {
      metrics.entries = integer_axis<core::HostId>(value, "metrics.entries");
    } else if (key == "targets") {
      metrics.targets = integer_axis<core::HostId>(value, "metrics.targets");
    } else if (key == "engine") {
      metrics.engine = value.as_string();
      // One source of truth for the name set and its error message.
      (void)bayes::inference_engine_from_name(metrics.engine);
    } else if (key == "samples") {
      metrics.samples = static_cast<std::size_t>(non_negative_integer(value, "metrics.samples"));
      require(metrics.samples > 0, "ScenarioGrid::from_json",
              "metrics.samples must be positive");
    } else if (key == "exact_max_edges") {
      metrics.exact_max_edges =
          static_cast<std::size_t>(non_negative_integer(value, "metrics.exact_max_edges"));
      require(metrics.exact_max_edges > 0, "ScenarioGrid::from_json",
              "metrics.exact_max_edges must be positive");
    } else if (key == "seed") {
      metrics.seed = non_negative_integer(value, "metrics.seed");
    } else {
      throw InvalidArgument("ScenarioGrid::from_json: unknown key: metrics." + key);
    }
  }
  return metrics;
}

}  // namespace

ScenarioGrid ScenarioGrid::from_json(const support::Json& json) {
  ScenarioGrid grid;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "name") {
      grid.name = value.as_string();
    } else if (key == "hosts") {
      grid.hosts = integer_axis<std::size_t>(value, key);
    } else if (key == "degrees") {
      grid.degrees = number_axis(value, key);
    } else if (key == "services") {
      grid.services = integer_axis<std::size_t>(value, key);
    } else if (key == "products_per_service") {
      grid.products_per_service = integer_axis<std::size_t>(value, key);
    } else if (key == "solvers") {
      grid.solvers = string_axis(value, key);
    } else if (key == "constraints") {
      grid.constraints = string_axis(value, key);
    } else if (key == "seeds") {
      grid.seeds = integer_axis<std::uint64_t>(value, key);
    } else if (key == "similar_pair_fraction") {
      grid.similar_pair_fraction = value.as_double();
    } else if (key == "max_similarity") {
      grid.max_similarity = value.as_double();
    } else if (key == "max_iterations") {
      // A negative int would otherwise wrap to a huge size_t and run the
      // solver effectively forever.
      grid.solve.max_iterations =
          static_cast<std::size_t>(non_negative_integer(value, "max_iterations"));
    } else if (key == "tolerance") {
      const double tolerance = value.as_double();
      require(std::isfinite(tolerance) && tolerance >= 0.0, "ScenarioGrid::from_json",
              "tolerance must be finite and non-negative");
      grid.solve.tolerance = tolerance;
    } else if (key == "max_cells") {
      grid.max_cells = static_cast<std::size_t>(non_negative_integer(value, "max_cells"));
      require(grid.max_cells > 0, "ScenarioGrid::from_json", "max_cells must be positive");
    } else if (key == "attack") {
      grid.attack = attack_grid_from_json(value);
    } else if (key == "metrics") {
      grid.metrics = metrics_spec_from_json(value);
    } else {
      throw InvalidArgument("ScenarioGrid::from_json: unknown key: " + key);
    }
  }
  return grid;
}

}  // namespace icsdiv::runner
