#include "runner/batch_runner.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <tuple>

#include "support/csv.hpp"

namespace icsdiv::runner {

namespace {

using support::json_number;

/// Shortest round-trippable decimal form, stable across runs.  Non-finite
/// values become the empty cell — the CSV spelling of the JSON report's
/// null (JSON has no NaN/Infinity literal, and a "nan"/"inf" string cell
/// in an otherwise numeric column trips most readers; see DESIGN.md §9).
std::string format_double(double value) {
  if (!std::isfinite(value)) return "";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::size_t BatchReport::failed_count() const noexcept {
  std::size_t failed = 0;
  for (const ScenarioResult& result : results) {
    if (!result.error.empty()) ++failed;
  }
  return failed;
}

void BatchReport::write_csv(std::ostream& out, bool include_timings) const {
  support::CsvWriter writer(out);
  std::vector<std::string> header{
      "name",        "hosts",      "degree",           "services",
      "products",    "solver",     "constraints",      "seed",
      "links",       "variables",  "energy",           "lower_bound",
      "iterations",  "converged",  "satisfied",        "total_similarity",
      "avg_similarity", "richness"};
  // Attack/metrics columns stay empty for solve-only cells.
  header.insert(header.end(), {"attack_strategy", "attack_detection", "mttc_mean",
                               "mttc_uncensored_mean", "mttc_censored", "mttc_runs"});
  header.insert(header.end(), {"metric_engine", "metric_pairs", "d_bn_mean", "d_bn_min",
                               "p_with_mean", "p_without_mean"});
  if (include_timings) {
    header.insert(header.end(),
                  {"build_seconds", "solve_seconds", "attack_seconds", "metric_seconds"});
  }
  header.push_back("error");
  writer.write_row(header);
  for (const ScenarioResult& r : results) {
    std::vector<std::string> row{
        r.name,
        std::to_string(r.hosts),
        format_double(r.degree),
        std::to_string(r.services),
        std::to_string(r.products_per_service),
        r.solver,
        r.constraints,
        std::to_string(r.seed),
        std::to_string(r.links),
        std::to_string(r.variables),
        format_double(r.energy),
        format_double(r.lower_bound),
        std::to_string(r.iterations),
        r.converged ? "yes" : "no",
        r.constraints_satisfied ? "yes" : "no",
        format_double(r.total_similarity),
        format_double(r.average_similarity),
        format_double(r.normalized_richness)};
    if (r.attacked) {
      row.insert(row.end(),
                 {r.attack_strategy, format_double(r.attack_detection),
                  format_double(r.mttc_mean), format_double(r.mttc_uncensored_mean),
                  std::to_string(r.mttc_censored), std::to_string(r.mttc_runs)});
    } else if (!r.attack_strategy.empty()) {
      // Failed attack cell: echo the axes, leave the metrics empty.
      row.insert(row.end(), {r.attack_strategy, format_double(r.attack_detection)});
      row.insert(row.end(), 4, "");
    } else {
      row.insert(row.end(), 6, "");
    }
    if (r.metrics_evaluated) {
      row.insert(row.end(),
                 {r.metric_engine, std::to_string(r.metric_pairs), format_double(r.d_bn_mean),
                  format_double(r.d_bn_min), format_double(r.p_with_mean),
                  format_double(r.p_without_mean)});
    } else if (!r.metric_engine.empty()) {
      // Failed metrics cell: echo the engine, leave the numbers empty.
      row.push_back(r.metric_engine);
      row.insert(row.end(), 5, "");
    } else {
      row.insert(row.end(), 6, "");
    }
    if (include_timings) {
      row.push_back(format_double(r.build_seconds));
      row.push_back(format_double(r.solve_seconds));
      row.push_back(r.attacked ? format_double(r.attack_seconds) : "");
      row.push_back(r.metrics_evaluated ? format_double(r.metric_seconds) : "");
    }
    row.push_back(r.error);
    writer.write_row(row);
  }
}

support::Json BatchReport::to_json(bool include_timings) const {
  support::JsonObject root;
  if (include_timings) {
    // The machine-dependent block: worker count, wall clock and cache
    // counters (disk hits differ between cold and warm runs).  Omitted in
    // deterministic mode so the document depends on the grid alone.
    root.set("threads", threads);
    root.set("wall_seconds", wall_seconds);
  }
  root.set("cells", results.size());
  root.set("failed", failed_count());
  if (include_timings) root.set("stage_stats", stage_stats.to_json());

  support::JsonArray cells;
  for (const ScenarioResult& r : results) {
    support::JsonObject cell;
    cell.set("name", r.name);
    cell.set("hosts", r.hosts);
    cell.set("degree", r.degree);
    cell.set("services", r.services);
    cell.set("products_per_service", r.products_per_service);
    cell.set("solver", r.solver);
    cell.set("constraints", r.constraints);
    cell.set("seed", static_cast<std::int64_t>(r.seed));
    if (!r.error.empty()) {
      cell.set("error", r.error);
      cells.emplace_back(std::move(cell));
      continue;
    }
    cell.set("links", r.links);
    cell.set("variables", r.variables);
    cell.set("energy", json_number(r.energy));
    cell.set("lower_bound", json_number(r.lower_bound));
    cell.set("iterations", r.iterations);
    cell.set("converged", r.converged);
    cell.set("satisfied", r.constraints_satisfied);
    cell.set("total_similarity", json_number(r.total_similarity));
    cell.set("avg_similarity", json_number(r.average_similarity));
    cell.set("richness", json_number(r.normalized_richness));
    if (r.attacked) {
      support::JsonObject attack;
      attack.set("strategy", r.attack_strategy);
      attack.set("detection", r.attack_detection);
      attack.set("runs", r.mttc_runs);
      attack.set("mttc_mean", json_number(r.mttc_mean));
      // null when every run censored (NaN has no JSON literal).
      attack.set("mttc_uncensored_mean", json_number(r.mttc_uncensored_mean));
      attack.set("censored", r.mttc_censored);
      if (include_timings) attack.set("attack_seconds", r.attack_seconds);
      cell.set("attack", std::move(attack));
    }
    if (r.metrics_evaluated) {
      support::JsonObject metrics;
      metrics.set("engine", r.metric_engine);
      metrics.set("pairs", r.metric_pairs);
      metrics.set("d_bn_mean", json_number(r.d_bn_mean));
      metrics.set("d_bn_min", json_number(r.d_bn_min));
      metrics.set("p_with_mean", json_number(r.p_with_mean));
      metrics.set("p_without_mean", json_number(r.p_without_mean));
      if (include_timings) metrics.set("metric_seconds", r.metric_seconds);
      cell.set("metrics", std::move(metrics));
    }
    if (include_timings) {
      cell.set("build_seconds", r.build_seconds);
      cell.set("solve_seconds", r.solve_seconds);
    }
    cells.emplace_back(std::move(cell));
  }
  root.set("results", std::move(cells));

  // Aggregates per (solver, constraints[, attack strategy × detection]):
  // the cross-axis comparison a sweep is usually run for.  Solve-only
  // cells group exactly as they did before attack axes existed.
  struct Aggregate {
    std::size_t cells = 0;
    std::size_t failures = 0;
    double energy = 0.0;
    double similarity = 0.0;
    double richness = 0.0;
    double solve_seconds = 0.0;
    bool attacked = false;
    double mttc = 0.0;
    std::size_t mttc_runs = 0;
    std::size_t mttc_censored = 0;
    bool metrics = false;
    double d_bn = 0.0;
  };
  using GroupKey = std::tuple<std::string, std::string, std::string, double>;
  std::map<GroupKey, Aggregate> groups;
  for (const ScenarioResult& r : results) {
    Aggregate& group =
        groups[{r.solver, r.constraints, r.attack_strategy, r.attack_detection}];
    ++group.cells;
    if (!r.error.empty()) {
      ++group.failures;
      continue;
    }
    group.energy += r.energy;
    group.similarity += r.average_similarity;
    group.richness += r.normalized_richness;
    group.solve_seconds += r.solve_seconds;
    if (r.attacked) {
      group.attacked = true;
      group.mttc += r.mttc_mean;
      group.mttc_runs += r.mttc_runs;
      group.mttc_censored += r.mttc_censored;
    }
    if (r.metrics_evaluated) {
      group.metrics = true;
      group.d_bn += r.d_bn_mean;
    }
  }
  support::JsonArray aggregates;
  for (const auto& [key, group] : groups) {
    const double ok = static_cast<double>(group.cells - group.failures);
    support::JsonObject entry;
    entry.set("solver", std::get<0>(key));
    entry.set("constraints", std::get<1>(key));
    entry.set("cells", group.cells);
    entry.set("failures", group.failures);
    entry.set("mean_energy", ok > 0 ? json_number(group.energy / ok) : support::Json(nullptr));
    entry.set("mean_avg_similarity",
              ok > 0 ? json_number(group.similarity / ok) : support::Json(nullptr));
    entry.set("mean_richness", ok > 0 ? json_number(group.richness / ok) : support::Json(nullptr));
    if (include_timings) {
      entry.set("mean_solve_seconds",
                ok > 0 ? json_number(group.solve_seconds / ok) : support::Json(nullptr));
    }
    if (group.attacked) {
      entry.set("attack_strategy", std::get<2>(key));
      entry.set("attack_detection", std::get<3>(key));
      entry.set("mean_mttc", ok > 0 ? json_number(group.mttc / ok) : support::Json(nullptr));
      entry.set("censored_rate",
                group.mttc_runs > 0
                    ? json_number(static_cast<double>(group.mttc_censored) /
                                  static_cast<double>(group.mttc_runs))
                    : support::Json(nullptr));
    }
    if (group.metrics) {
      entry.set("mean_d_bn", ok > 0 ? json_number(group.d_bn / ok) : support::Json(nullptr));
    }
    aggregates.emplace_back(std::move(entry));
  }
  root.set("aggregates", std::move(aggregates));
  return root;
}

}  // namespace icsdiv::runner
