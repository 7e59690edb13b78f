#include "runner/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace icsdiv::runner {

namespace {

/// Doubles in shard documents must round-trip bit-exactly, including the
/// non-finite values the JSON writer refuses to dump: finite values use
/// the writer's shortest-round-trip formatting, non-finite ones travel as
/// strings.
support::Json shard_double(double value) {
  if (std::isfinite(value)) return value;
  if (std::isnan(value)) return "nan";
  return value > 0 ? "inf" : "-inf";
}

double shard_double_from(const support::Json& json) {
  if (json.is_string()) {
    const std::string& text = json.as_string();
    if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (text == "inf") return std::numeric_limits<double>::infinity();
    if (text == "-inf") return -std::numeric_limits<double>::infinity();
    throw InvalidArgument("shard document: unknown non-finite marker \"" + text + "\"");
  }
  return json.as_double();
}

support::Json result_to_json(const ScenarioResult& result) {
  support::JsonObject object;
  object.set("index", result.index);
  object.set("name", result.name);
  object.set("hosts", result.hosts);
  object.set("degree", shard_double(result.degree));
  object.set("services", result.services);
  object.set("products_per_service", result.products_per_service);
  object.set("solver", result.solver);
  object.set("constraints", result.constraints);
  object.set("seed", static_cast<std::int64_t>(result.seed));
  object.set("links", result.links);
  object.set("variables", result.variables);
  object.set("energy", shard_double(result.energy));
  object.set("lower_bound", shard_double(result.lower_bound));
  object.set("iterations", result.iterations);
  object.set("converged", result.converged);
  object.set("constraints_satisfied", result.constraints_satisfied);
  object.set("total_similarity", shard_double(result.total_similarity));
  object.set("average_similarity", shard_double(result.average_similarity));
  object.set("normalized_richness", shard_double(result.normalized_richness));
  object.set("attacked", result.attacked);
  object.set("attack_strategy", result.attack_strategy);
  object.set("attack_detection", shard_double(result.attack_detection));
  object.set("mttc_runs", result.mttc_runs);
  object.set("mttc_mean", shard_double(result.mttc_mean));
  object.set("mttc_uncensored_mean", shard_double(result.mttc_uncensored_mean));
  object.set("mttc_censored", result.mttc_censored);
  object.set("metrics_evaluated", result.metrics_evaluated);
  object.set("metric_engine", result.metric_engine);
  object.set("metric_pairs", result.metric_pairs);
  object.set("d_bn_mean", shard_double(result.d_bn_mean));
  object.set("d_bn_min", shard_double(result.d_bn_min));
  object.set("p_with_mean", shard_double(result.p_with_mean));
  object.set("p_without_mean", shard_double(result.p_without_mean));
  object.set("build_seconds", shard_double(result.build_seconds));
  object.set("solve_seconds", shard_double(result.solve_seconds));
  object.set("attack_seconds", shard_double(result.attack_seconds));
  object.set("metric_seconds", shard_double(result.metric_seconds));
  object.set("error", result.error);
  return object;
}

ScenarioResult result_from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  ScenarioResult result;
  result.index = static_cast<std::size_t>(object.at("index").as_integer());
  result.name = object.at("name").as_string();
  result.hosts = static_cast<std::size_t>(object.at("hosts").as_integer());
  result.degree = shard_double_from(object.at("degree"));
  result.services = static_cast<std::size_t>(object.at("services").as_integer());
  result.products_per_service =
      static_cast<std::size_t>(object.at("products_per_service").as_integer());
  result.solver = object.at("solver").as_string();
  result.constraints = object.at("constraints").as_string();
  result.seed = static_cast<std::uint64_t>(object.at("seed").as_integer());
  result.links = static_cast<std::size_t>(object.at("links").as_integer());
  result.variables = static_cast<std::size_t>(object.at("variables").as_integer());
  result.energy = shard_double_from(object.at("energy"));
  result.lower_bound = shard_double_from(object.at("lower_bound"));
  result.iterations = static_cast<std::size_t>(object.at("iterations").as_integer());
  result.converged = object.at("converged").as_boolean();
  result.constraints_satisfied = object.at("constraints_satisfied").as_boolean();
  result.total_similarity = shard_double_from(object.at("total_similarity"));
  result.average_similarity = shard_double_from(object.at("average_similarity"));
  result.normalized_richness = shard_double_from(object.at("normalized_richness"));
  result.attacked = object.at("attacked").as_boolean();
  result.attack_strategy = object.at("attack_strategy").as_string();
  result.attack_detection = shard_double_from(object.at("attack_detection"));
  result.mttc_runs = static_cast<std::size_t>(object.at("mttc_runs").as_integer());
  result.mttc_mean = shard_double_from(object.at("mttc_mean"));
  result.mttc_uncensored_mean = shard_double_from(object.at("mttc_uncensored_mean"));
  result.mttc_censored = static_cast<std::size_t>(object.at("mttc_censored").as_integer());
  result.metrics_evaluated = object.at("metrics_evaluated").as_boolean();
  result.metric_engine = object.at("metric_engine").as_string();
  result.metric_pairs = static_cast<std::size_t>(object.at("metric_pairs").as_integer());
  result.d_bn_mean = shard_double_from(object.at("d_bn_mean"));
  result.d_bn_min = shard_double_from(object.at("d_bn_min"));
  result.p_with_mean = shard_double_from(object.at("p_with_mean"));
  result.p_without_mean = shard_double_from(object.at("p_without_mean"));
  result.build_seconds = shard_double_from(object.at("build_seconds"));
  result.solve_seconds = shard_double_from(object.at("solve_seconds"));
  result.attack_seconds = shard_double_from(object.at("attack_seconds"));
  result.metric_seconds = shard_double_from(object.at("metric_seconds"));
  result.error = object.at("error").as_string();
  return result;
}

}  // namespace

ShardSpec parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  require(slash != std::string_view::npos && slash > 0 && slash + 1 < text.size(),
          "parse_shard", "shard must be K/N (e.g. 0/4)");
  const auto parse_count = [](std::string_view digits) {
    std::size_t value = 0;
    require(!digits.empty(), "parse_shard", "shard must be K/N (e.g. 0/4)");
    for (const char c : digits) {
      require(c >= '0' && c <= '9', "parse_shard", "shard must be K/N (e.g. 0/4)");
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
  };
  ShardSpec shard;
  shard.index = parse_count(text.substr(0, slash));
  shard.count = parse_count(text.substr(slash + 1));
  require(shard.count >= 1, "parse_shard", "shard count must be at least 1");
  require(shard.index < shard.count, "parse_shard", "shard index must be below the count");
  return shard;
}

bool shard_owns(const ShardSpec& shard, const ArtifactKey& solve_key) noexcept {
  return (solve_key.hi ^ solve_key.lo) % shard.count == shard.index;
}

support::Json shard_to_json(const ShardSpec& shard, const std::string& grid_key,
                            std::size_t total_cells,
                            const std::vector<ScenarioResult>& results) {
  support::JsonObject object;
  object.set("icsdiv_shard", 1);
  object.set("grid_key", grid_key);
  object.set("shard", shard.index);
  object.set("shards", shard.count);
  object.set("total_cells", total_cells);
  support::JsonArray rows;
  for (const ScenarioResult& result : results) rows.push_back(result_to_json(result));
  object.set("results", std::move(rows));
  return object;
}

BatchReport merge_shards(const std::vector<support::Json>& shards) {
  require(!shards.empty(), "merge_shards", "no shard documents given");

  const support::JsonObject& first = shards.front().as_object();
  require(first.contains("icsdiv_shard") && first.at("icsdiv_shard").as_integer() == 1,
          "merge_shards", "not a shard document (icsdiv_shard != 1)");
  const std::string grid_key = first.at("grid_key").as_string();
  const auto shard_count = static_cast<std::size_t>(first.at("shards").as_integer());
  const auto total_cells = static_cast<std::size_t>(first.at("total_cells").as_integer());
  require(shards.size() == shard_count, "merge_shards",
          "expected " + std::to_string(shard_count) + " shard documents, got " +
              std::to_string(shards.size()));

  // Validate every envelope and count the rows before sizing anything
  // from total_cells: a declared count is only trusted once the rows the
  // documents carry add up to it.
  std::vector<bool> shard_seen(shard_count, false);
  std::size_t rows = 0;
  for (const support::Json& document : shards) {
    const support::JsonObject& object = document.as_object();
    require(object.contains("icsdiv_shard") && object.at("icsdiv_shard").as_integer() == 1,
            "merge_shards", "not a shard document (icsdiv_shard != 1)");
    require(object.at("grid_key").as_string() == grid_key, "merge_shards",
            "shard documents come from different grids (grid_key mismatch)");
    require(static_cast<std::size_t>(object.at("shards").as_integer()) == shard_count,
            "merge_shards", "shard documents disagree on the shard count");
    require(static_cast<std::size_t>(object.at("total_cells").as_integer()) == total_cells,
            "merge_shards", "shard documents disagree on the cell count");
    const auto index = static_cast<std::size_t>(object.at("shard").as_integer());
    require(index < shard_count, "merge_shards", "shard index out of range");
    require(!shard_seen[index], "merge_shards",
            "shard " + std::to_string(index) + " appears twice");
    shard_seen[index] = true;
    rows += object.at("results").as_array().size();
  }
  require(rows == total_cells, "merge_shards",
          "shard documents carry " + std::to_string(rows) + " cells, not the " +
              std::to_string(total_cells) + " they declare");

  // With exactly total_cells rows, in-range indices seen once each cover
  // every cell.
  std::vector<bool> cell_seen(total_cells, false);
  BatchReport report;
  report.results.resize(total_cells);
  for (const support::Json& document : shards) {
    for (const support::Json& row : document.as_object().at("results").as_array()) {
      ScenarioResult result = result_from_json(row);
      require(result.index < total_cells, "merge_shards",
              "cell index " + std::to_string(result.index) + " out of range");
      require(!cell_seen[result.index], "merge_shards",
              "cell " + std::to_string(result.index) + " appears in two shards");
      cell_seen[result.index] = true;
      report.results[result.index] = std::move(result);
    }
  }
  return report;
}

}  // namespace icsdiv::runner
