// Scenario grids and the parallel batch engine: cartesian expansion, JSON
// parsing, constraint recipes, the worker ceiling, and the determinism
// guarantee — the same grid + seed produces an identical report on 1 and
// N threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "batch_options.hpp"
#include "runner/batch_runner.hpp"
#include "support/csv.hpp"

namespace icsdiv::runner {
namespace {

/// Small grid that exercises every axis and stays fast (12 cells).
ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.hosts = {12, 20};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none", "pinned", "forbidden-pair"};
  grid.seeds = {7};
  grid.solve.max_iterations = 30;
  return grid;
}

/// One cell through the batch engine on a single worker.
ScenarioResult run_one(const ScenarioSpec& spec) {
  BatchOptions options;
  options.threads = 1;
  return BatchRunner(options).run({spec}).results.front();
}

TEST(ScenarioGrid, ExpandsTheCartesianProduct) {
  const ScenarioGrid grid = small_grid();
  EXPECT_EQ(grid.cell_count(), 12u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 12u);
  // Fixed axis order: hosts outermost, seeds innermost.
  EXPECT_EQ(specs[0].workload.hosts, 12u);
  EXPECT_EQ(specs[0].solver, "trws");
  EXPECT_EQ(specs[0].constraints, "none");
  EXPECT_EQ(specs[1].constraints, "pinned");
  EXPECT_EQ(specs[3].solver, "icm");
  EXPECT_EQ(specs[6].workload.hosts, 20u);
  // Names are unique and self-describing.
  EXPECT_NE(specs[0].name, specs[1].name);
  EXPECT_NE(specs[0].name.find("h12"), std::string::npos);
  EXPECT_NE(specs[0].name.find("trws"), std::string::npos);
}

TEST(ScenarioGrid, ParsesArrayAndScalarAxes) {
  const support::Json parsed = support::Json::parse(R"({
    "name": "t",
    "hosts": [10, 20],
    "degrees": 4,
    "services": 2,
    "products_per_service": [3],
    "solvers": "icm",
    "constraints": ["none"],
    "seeds": [1, 2, 3],
    "max_iterations": 17,
    "tolerance": 1e-5
  })");
  const ScenarioGrid grid = ScenarioGrid::from_json(parsed);
  EXPECT_EQ(grid.name, "t");
  EXPECT_EQ(grid.hosts, (std::vector<std::size_t>{10, 20}));
  EXPECT_EQ(grid.degrees, (std::vector<double>{4.0}));
  EXPECT_EQ(grid.solvers, (std::vector<std::string>{"icm"}));
  EXPECT_EQ(grid.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(grid.solve.max_iterations, 17u);
  EXPECT_EQ(grid.cell_count(), 6u);
}

TEST(ScenarioGrid, CellCountRejectsGridsPastTheCap) {
  ScenarioGrid grid = small_grid();
  EXPECT_EQ(grid.cell_count(), grid.expand().size());

  // 2000 × 2000 × 2 × 3 cells blows the default 1M cap: cell_count() and
  // expand() both refuse instead of attempting a multi-GB allocation.
  grid.seeds.assign(2000, 0);
  std::iota(grid.seeds.begin(), grid.seeds.end(), 0);
  grid.hosts.assign(2000, 8);
  EXPECT_THROW((void)grid.cell_count(), Infeasible);
  EXPECT_THROW((void)grid.expand(), Infeasible);
  // Raising the cap re-admits the grid (the guard is configurable).
  grid.max_cells = 100'000'000;
  EXPECT_EQ(grid.cell_count(), 2000u * 2000u * 2u * 3u);
}

TEST(ScenarioGrid, CellCountRejectsOverflowingAxisProducts) {
  // Seven axes of 1024 values each multiply to 2^70 — past size_t — while
  // every individual vector stays tiny.  An unchecked product would wrap;
  // the checked count must throw instead of under-reserving.
  ScenarioGrid grid;
  grid.hosts.assign(1024, 8);
  grid.degrees.assign(1024, 4.0);
  grid.services.assign(1024, 1);
  grid.products_per_service.assign(1024, 2);
  grid.solvers.assign(1024, "icm");
  grid.constraints.assign(1024, "none");
  grid.seeds.assign(1024, 1);
  EXPECT_THROW((void)grid.cell_count(), Infeasible);
  EXPECT_THROW((void)grid.expand(), Infeasible);
}

TEST(ScenarioGrid, MaxCellsParsesAndValidates) {
  const ScenarioGrid grid =
      ScenarioGrid::from_json(support::Json::parse(R"({"max_cells": 42})"));
  EXPECT_EQ(grid.max_cells, 42u);
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"max_cells": 0})")),
               InvalidArgument);
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"max_cells": -1})")),
               InvalidArgument);
  // The default survives documents that never mention the key.
  EXPECT_EQ(ScenarioGrid::from_json(support::Json::parse(R"({})")).max_cells,
            ScenarioGrid::kDefaultMaxCells);
}

TEST(ScenarioGrid, UnknownKeysThrow) {
  const support::Json parsed = support::Json::parse(R"({"hostz": [10]})");
  EXPECT_THROW(ScenarioGrid::from_json(parsed), InvalidArgument);
}

TEST(ScenarioGrid, IntegerAxesRejectFractionsInsteadOfTruncating) {
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"hosts": [100.9]})")),
               InvalidArgument);
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"seeds": [-3]})")),
               InvalidArgument);
  // Large seeds survive exactly (no double round-trip).
  const ScenarioGrid grid =
      ScenarioGrid::from_json(support::Json::parse(R"({"seeds": [9007199254740993]})"));
  EXPECT_EQ(grid.seeds, (std::vector<std::uint64_t>{9007199254740993ULL}));
}

TEST(ScenarioGrid, RejectsNegativeMaxIterationsAndBadTolerance) {
  // A negative int used to wrap to a huge size_t and run effectively
  // forever; non-finite tolerances disabled convergence checks silently.
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"max_iterations": -5})")),
               InvalidArgument);
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"tolerance": -1e-6})")),
               InvalidArgument);
  support::JsonObject with_infinity;
  with_infinity.set("tolerance", std::numeric_limits<double>::infinity());
  EXPECT_THROW(ScenarioGrid::from_json(with_infinity), InvalidArgument);
  support::JsonObject with_nan;
  with_nan.set("tolerance", std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(ScenarioGrid::from_json(with_nan), InvalidArgument);
  // The happy path still parses.
  const ScenarioGrid grid = ScenarioGrid::from_json(
      support::Json::parse(R"({"max_iterations": 12, "tolerance": 1e-7})"));
  EXPECT_EQ(grid.solve.max_iterations, 12u);
  EXPECT_DOUBLE_EQ(grid.solve.tolerance, 1e-7);
}

TEST(AttackGrid, ParsesAndExpands) {
  const support::Json parsed = support::Json::parse(R"({
    "hosts": [14],
    "degrees": 4,
    "services": 2,
    "products_per_service": 3,
    "solvers": ["icm"],
    "seeds": [3],
    "max_iterations": 20,
    "attack": {
      "entries": [0, 1],
      "target": 13,
      "strategies": ["sophisticated", "uniform"],
      "detections": [0.0, 0.1],
      "runs": 25,
      "max_ticks": 300,
      "seed": 77
    }
  })");
  const ScenarioGrid grid = ScenarioGrid::from_json(parsed);
  ASSERT_TRUE(grid.attack.has_value());
  EXPECT_EQ(grid.attack->entries, (std::vector<core::HostId>{0, 1}));
  EXPECT_EQ(grid.attack->target, 13u);
  EXPECT_EQ(grid.attack->runs, 25u);
  EXPECT_EQ(grid.attack->max_ticks, 300u);
  EXPECT_EQ(grid.attack->seed, 77u);
  // The attack axes multiply the grid: 1 solve cell × 2 strategies × 2
  // detections.
  EXPECT_EQ(grid.cell_count(), 4u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);
  ASSERT_TRUE(specs[0].attack.has_value());
  EXPECT_EQ(specs[0].attack->strategy, "sophisticated");
  EXPECT_DOUBLE_EQ(specs[0].attack->detection, 0.0);
  EXPECT_DOUBLE_EQ(specs[1].attack->detection, 0.1);
  EXPECT_EQ(specs[2].attack->strategy, "uniform");
  // Names stay unique and carry the attack axes.
  EXPECT_NE(specs[0].name, specs[1].name);
  EXPECT_NE(specs[0].name.find("sophisticated"), std::string::npos);
  EXPECT_NE(specs[1].name.find("det0.1"), std::string::npos);
}

TEST(AttackGrid, RejectsBadValues) {
  EXPECT_THROW(ScenarioGrid::from_json(
                   support::Json::parse(R"({"attack": {"strategies": ["clever"]}})")),
               InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"detections": [1.5]}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"detections": [-0.1]}})")),
      InvalidArgument);
  EXPECT_THROW(ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"runs": 0}})")),
               InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"max_ticks": 0}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"entries": [-1]}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"attack": {"bogus_key": 1}})")),
      InvalidArgument);
}

TEST(MetricsSpec, ParsesTheMetricsBlock) {
  const support::Json parsed = support::Json::parse(R"({
    "hosts": [14],
    "solvers": ["icm"],
    "metrics": {
      "entries": [0, 1],
      "targets": [12, 13],
      "engine": "montecarlo",
      "samples": 5000,
      "exact_max_edges": 32,
      "seed": 41
    }
  })");
  const ScenarioGrid grid = ScenarioGrid::from_json(parsed);
  ASSERT_TRUE(grid.metrics.has_value());
  EXPECT_EQ(grid.metrics->entries, (std::vector<core::HostId>{0, 1}));
  EXPECT_EQ(grid.metrics->targets, (std::vector<core::HostId>{12, 13}));
  EXPECT_EQ(grid.metrics->engine, "montecarlo");
  EXPECT_EQ(grid.metrics->samples, 5000u);
  EXPECT_EQ(grid.metrics->exact_max_edges, 32u);
  EXPECT_EQ(grid.metrics->seed, 41u);
  // Unlike the attack block, metrics carries no grid-multiplying axes.
  EXPECT_EQ(grid.cell_count(), 1u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  ASSERT_TRUE(specs[0].metrics.has_value());
  EXPECT_EQ(specs[0].metrics->targets, grid.metrics->targets);
}

TEST(MetricsSpec, RejectsBadValues) {
  // Unknown engine strings, zero samples/budgets, negative hosts and
  // unknown keys all fail at parse time — the PR-3 validation pattern.
  EXPECT_THROW(ScenarioGrid::from_json(
                   support::Json::parse(R"({"metrics": {"engine": "guesswork"}})")),
               InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"metrics": {"samples": 0}})")),
      InvalidArgument);
  EXPECT_THROW(ScenarioGrid::from_json(
                   support::Json::parse(R"({"metrics": {"exact_max_edges": 0}})")),
               InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"metrics": {"entries": [-1]}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"metrics": {"targets": []}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"metrics": {"samples": 10.5}})")),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioGrid::from_json(support::Json::parse(R"({"metrics": {"bogus_key": 1}})")),
      InvalidArgument);
}

TEST(SingleCell, ComputesDbnColumnsFromTheMetricsBlock) {
  ScenarioSpec spec;
  spec.workload.hosts = 16;
  spec.workload.average_degree = 4.0;
  spec.workload.services = 2;
  spec.workload.products_per_service = 3;
  spec.solver = "icm";
  spec.seed = 5;
  MetricsSpec metrics;
  metrics.entries = {0, 1};
  metrics.targets = {14, 15};
  metrics.engine = "montecarlo";
  metrics.samples = 20'000;
  spec.metrics = metrics;
  const ScenarioResult result = run_one(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.metrics_evaluated);
  EXPECT_EQ(result.metric_engine, "montecarlo");
  EXPECT_EQ(result.metric_pairs, 4u);  // 2 entries × 2 targets
  EXPECT_GT(result.d_bn_mean, 0.0);
  EXPECT_LE(result.d_bn_mean, 1.0 + 1e-9);
  EXPECT_LE(result.d_bn_min, result.d_bn_mean);
  EXPECT_GT(result.p_with_mean, 0.0);
  EXPECT_GE(result.p_with_mean, result.p_without_mean);  // Def. 6: d_bn ≤ 1
}

TEST(SingleCell, MetricsHostsOutsideTheWorkloadFailTheCell) {
  ScenarioSpec spec;
  spec.workload.hosts = 8;
  spec.workload.services = 1;
  MetricsSpec metrics;
  metrics.entries = {0};
  metrics.targets = {99};  // not a host of an 8-host workload
  spec.metrics = metrics;
  const ScenarioResult result = run_one(spec);
  EXPECT_FALSE(result.error.empty());
  EXPECT_FALSE(result.metrics_evaluated);
  // The engine echo survives for the report's axis columns.
  EXPECT_EQ(result.metric_engine, "auto");
}

TEST(ConstraintRecipes, UnknownRecipeThrows) {
  const WorkloadInstance instance = make_workload(WorkloadParams{.hosts = 4, .services = 1});
  EXPECT_THROW(apply_constraint_recipe("bogus", *instance.network), InvalidArgument);
}

TEST(ConstraintRecipes, PinnedFixesEveryFourthHost) {
  WorkloadParams params;
  params.hosts = 9;
  params.services = 2;
  const WorkloadInstance instance = make_workload(params);
  const core::ConstraintSet constraints = apply_constraint_recipe("pinned", *instance.network);
  ASSERT_EQ(constraints.fixed().size(), 3u);  // hosts 0, 4, 8
  EXPECT_EQ(constraints.fixed()[0].host, 0u);
  EXPECT_TRUE(constraints.pairs().empty());
  constraints.validate(*instance.network);
}

TEST(ConstraintRecipes, ForbiddenPairIsGlobal) {
  WorkloadParams params;
  params.hosts = 6;
  params.services = 2;
  const WorkloadInstance instance = make_workload(params);
  const core::ConstraintSet constraints =
      apply_constraint_recipe("forbidden-pair", *instance.network);
  ASSERT_EQ(constraints.pairs().size(), 1u);
  EXPECT_EQ(constraints.pairs()[0].host, core::kAllHosts);
  constraints.validate(*instance.network);
}

TEST(SingleCell, SolvesAndReportsMetrics) {
  ScenarioSpec spec;
  spec.workload.hosts = 15;
  spec.workload.average_degree = 4.0;
  spec.workload.services = 2;
  spec.workload.products_per_service = 3;
  spec.seed = 11;
  const ScenarioResult result = run_one(spec);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.hosts, 15u);
  EXPECT_EQ(result.variables, 30u);
  EXPECT_GT(result.links, 0u);
  EXPECT_TRUE(result.constraints_satisfied);
  EXPECT_GT(result.normalized_richness, 0.0);
  EXPECT_GE(result.total_similarity, 0.0);
  EXPECT_GE(result.total_similarity, result.average_similarity);  // ≥ 1 link-service pair
}

TEST(SingleCell, RunsTheAttackBlockOnTheSolvedCell) {
  ScenarioSpec spec;
  spec.workload.hosts = 12;
  spec.workload.average_degree = 4.0;
  spec.workload.services = 2;
  spec.workload.products_per_service = 3;
  spec.solver = "icm";
  spec.seed = 5;
  AttackSpec attack;
  attack.entries = {0, 1};
  attack.target = 11;
  attack.runs = 30;
  attack.max_ticks = 2000;
  spec.attack = attack;
  const ScenarioResult result = run_one(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.attacked);
  EXPECT_EQ(result.attack_strategy, "sophisticated");
  EXPECT_EQ(result.mttc_runs, 60u);  // 2 entries × 30 runs
  EXPECT_GT(result.mttc_mean, 0.0);
  EXPECT_LE(result.mttc_censored, result.mttc_runs);
}

TEST(SingleCell, AttackHostsOutsideTheWorkloadFailTheCell) {
  ScenarioSpec spec;
  spec.workload.hosts = 8;
  spec.workload.services = 1;
  AttackSpec attack;
  attack.entries = {0};
  attack.target = 99;  // not a host of an 8-host workload
  spec.attack = attack;
  const ScenarioResult result = run_one(spec);
  EXPECT_FALSE(result.error.empty());
}

TEST(SingleCell, CapturesFailuresPerCell) {
  ScenarioSpec spec;
  spec.workload.hosts = 8;
  spec.solver = "no-such-solver";
  const ScenarioResult result = run_one(spec);
  EXPECT_FALSE(result.error.empty());
  EXPECT_NE(result.error.find("no-such-solver"), std::string::npos);
}

TEST(BatchRunner, FailedCellsDoNotSinkTheBatch) {
  ScenarioGrid grid = small_grid();
  grid.solvers = {"trws", "no-such-solver"};
  grid.constraints = {"none"};
  const BatchReport report = BatchRunner(with_threads(2)).run(grid);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.failed_count(), 2u);
  for (const ScenarioResult& result : report.results) {
    EXPECT_EQ(result.error.empty(), result.solver == "trws");
  }
}

TEST(BatchRunner, RejectsMoreWorkersThanTheCeilingBeforePlanning) {
  // One cell would run on one worker whatever `threads` says, so a
  // request past the ceiling is refused up front, naming the ceiling.
  ScenarioSpec spec;
  spec.workload.hosts = 8;
  std::atomic<std::size_t> cells_run{0};
  BatchOptions options;
  options.on_result = [&](const ScenarioResult&) { ++cells_run; };
  options.threads = kMaxBatchThreads + 1;
  try {
    (void)BatchRunner(options).run({spec});
    ADD_FAILURE() << "threads past the ceiling were accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(kMaxBatchThreads)), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(cells_run.load(), 0u);

  options.threads = kMaxBatchThreads;
  EXPECT_EQ(BatchRunner(options).run({spec}).failed_count(), 0u);
  EXPECT_EQ(cells_run.load(), 1u);
}

/// The deterministic column subset, as CSV text, for exact comparison.
std::string deterministic_csv(const BatchReport& report) {
  std::ostringstream out;
  report.write_csv(out, /*include_timings=*/false);
  return out.str();
}

TEST(BatchRunner, SameGridAndSeedIsIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = small_grid();

  BatchOptions serial;
  serial.threads = 1;
  serial.inner_parallel = false;
  BatchOptions parallel;
  parallel.threads = 4;
  parallel.inner_parallel = false;

  const BatchReport a = BatchRunner(serial).run(grid);
  const BatchReport b = BatchRunner(parallel).run(grid);
  ASSERT_EQ(a.results.size(), grid.cell_count());
  ASSERT_EQ(b.results.size(), grid.cell_count());
  EXPECT_EQ(a.failed_count(), 0u);
  EXPECT_EQ(deterministic_csv(a), deterministic_csv(b));
  // And the engine really used different shard widths.
  EXPECT_EQ(a.threads, 1u);
  EXPECT_EQ(b.threads, 4u);
}

TEST(BatchRunner, AttackGridIsIdenticalAcrossThreadCounts) {
  ScenarioGrid grid;
  grid.name = "attack-determinism";
  grid.hosts = {12};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"icm"};
  grid.seeds = {7};
  grid.solve.max_iterations = 20;
  AttackGrid attack;
  attack.entries = {0, 1};
  attack.target = 11;
  attack.strategies = {"sophisticated", "uniform"};
  attack.detections = {0.0, 0.2};
  attack.runs = 20;
  attack.max_ticks = 500;
  grid.attack = attack;

  BatchOptions serial;
  serial.threads = 1;
  serial.inner_parallel = false;
  BatchOptions parallel;
  parallel.threads = 4;
  parallel.inner_parallel = true;  // in-cell MTTC fan-out must not matter

  const BatchReport a = BatchRunner(serial).run(grid);
  const BatchReport b = BatchRunner(parallel).run(grid);
  ASSERT_EQ(a.results.size(), 4u);
  EXPECT_EQ(a.failed_count(), 0u) << a.results[0].error;
  EXPECT_EQ(deterministic_csv(a), deterministic_csv(b));
  // The attack columns actually carry data.
  EXPECT_TRUE(a.results[0].attacked);
  EXPECT_EQ(a.results[0].mttc_runs, 40u);
  // JSON aggregates split by (strategy, detection) and report MTTC.
  const support::Json json = a.to_json();
  const auto& aggregates = json.as_object().at("aggregates").as_array();
  EXPECT_EQ(aggregates.size(), 4u);
  EXPECT_TRUE(aggregates[0].as_object().contains("mean_mttc"));
  EXPECT_TRUE(aggregates[0].as_object().contains("censored_rate"));
  EXPECT_FALSE(json.dump().empty());
}

TEST(BatchRunner, MetricsGridIsIdenticalAcrossThreadCounts) {
  ScenarioGrid grid;
  grid.name = "metrics-determinism";
  grid.hosts = {14};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"icm", "trws"};
  grid.seeds = {7};
  grid.solve.max_iterations = 20;
  MetricsSpec metrics;
  metrics.entries = {0, 1};
  metrics.targets = {12, 13};
  metrics.engine = "montecarlo";
  metrics.samples = 20'000;
  grid.metrics = metrics;

  BatchOptions serial;
  serial.threads = 1;
  serial.inner_parallel = false;
  BatchOptions parallel;
  parallel.threads = 4;
  parallel.inner_parallel = true;  // the sharded sampler must not matter

  const BatchReport a = BatchRunner(serial).run(grid);
  const BatchReport b = BatchRunner(parallel).run(grid);
  ASSERT_EQ(a.results.size(), 2u);
  EXPECT_EQ(a.failed_count(), 0u) << a.results[0].error;
  EXPECT_EQ(deterministic_csv(a), deterministic_csv(b));
  EXPECT_TRUE(a.results[0].metrics_evaluated);
  // JSON aggregates carry the metric summary.
  const support::Json json = a.to_json();
  const auto& aggregates = json.as_object().at("aggregates").as_array();
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_TRUE(aggregates[0].as_object().contains("mean_d_bn"));
  EXPECT_FALSE(json.dump().empty());
}

TEST(BatchRunner, FailedAttackCellsKeepTheirAxisGroup) {
  ScenarioGrid grid;
  grid.hosts = {10};
  grid.degrees = {3.0};
  grid.services = {1};
  grid.products_per_service = {2};
  grid.solvers = {"no-such-solver"};
  grid.seeds = {2};
  AttackGrid attack;
  attack.entries = {0};
  attack.target = 9;
  attack.strategies = {"sophisticated", "uniform"};
  attack.detections = {0.0};
  attack.runs = 10;
  grid.attack = attack;

  const BatchReport report = BatchRunner(with_threads(1)).run(grid);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.failed_count(), 2u);
  // A cell that never solved still echoes its attack axes, so the JSON
  // aggregates attribute the failure to the right (strategy, detection)
  // group instead of a phantom no-attack group.
  EXPECT_EQ(report.results[0].attack_strategy, "sophisticated");
  EXPECT_EQ(report.results[1].attack_strategy, "uniform");
  EXPECT_FALSE(report.results[0].attacked);
  const support::Json json = report.to_json();
  const auto& aggregates = json.as_object().at("aggregates").as_array();
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].as_object().at("failures").as_integer(), 1);
}

TEST(BatchRunner, OnResultFiresOncePerCell) {
  std::atomic<std::size_t> calls{0};
  BatchOptions options;
  options.threads = 3;
  options.on_result = [&](const ScenarioResult&) { ++calls; };
  const BatchReport report = BatchRunner(options).run(small_grid());
  EXPECT_EQ(calls.load(), report.results.size());
}

TEST(BatchRunner, ResultsStayInSpecOrder) {
  const auto specs = small_grid().expand();
  const BatchReport report = BatchRunner(with_threads(4)).run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.results[i].name, specs[i].name);
  }
}

TEST(BatchReport, NonFiniteValuesAreEmptyCsvCellsAndJsonNulls) {
  // An all-censored MTTC cell has mttc_uncensored_mean = NaN, and ICM
  // reports lower_bound = -inf; CSV must spell both as the empty cell
  // (the JSON report's null), not "nan"/"-inf" strings — the two formats
  // used to disagree (see DESIGN.md §9).
  ScenarioSpec spec;
  spec.workload.hosts = 12;
  spec.workload.average_degree = 3.0;
  spec.workload.services = 1;
  spec.workload.products_per_service = 2;
  spec.solver = "icm";
  spec.seed = 3;

  // Pick a target ≥ 2 hops from the entry, then censor at a 1-tick
  // horizon: no run can ever reach it, deterministically.
  WorkloadParams workload = spec.workload;
  workload.seed = spec.seed;
  const WorkloadInstance instance = make_workload(workload);
  core::HostId target = core::kAllHosts;
  for (core::HostId candidate = 1; candidate < 12; ++candidate) {
    const auto neighbors = instance.network->topology().neighbors(0);
    if (std::find(neighbors.begin(), neighbors.end(), candidate) == neighbors.end()) {
      target = candidate;
      break;
    }
  }
  ASSERT_NE(target, core::kAllHosts) << "host 0 is adjacent to every other host";

  AttackSpec attack;
  attack.entries = {0};
  attack.target = target;
  attack.runs = 5;
  attack.max_ticks = 1;
  spec.attack = attack;

  const BatchReport report = BatchRunner(with_threads(1)).run({spec});
  ASSERT_EQ(report.failed_count(), 0u) << report.results[0].error;
  const ScenarioResult& result = report.results[0];
  EXPECT_EQ(result.mttc_censored, result.mttc_runs);
  EXPECT_TRUE(std::isnan(result.mttc_uncensored_mean));
  EXPECT_TRUE(std::isinf(result.lower_bound));  // ICM offers no dual bound

  // CSV round-trip: the non-finite columns come back as empty cells while
  // their finite neighbours survive exactly.
  std::ostringstream out;
  report.write_csv(out);
  const support::CsvDocument csv = support::parse_csv(out.str());
  ASSERT_EQ(csv.rows.size(), 1u);
  const auto& row = csv.rows[0];
  EXPECT_EQ(row[csv.column_index("mttc_uncensored_mean")], "");
  EXPECT_EQ(row[csv.column_index("lower_bound")], "");
  EXPECT_EQ(row[csv.column_index("mttc_censored")], std::to_string(result.mttc_censored));
  EXPECT_NE(row[csv.column_index("mttc_mean")], "");

  // And the JSON report nulls the same fields.
  const support::Json json = report.to_json();
  const auto& cell = json.as_object().at("results").as_array()[0].as_object();
  EXPECT_TRUE(cell.at("lower_bound").is_null());
  EXPECT_TRUE(cell.at("attack").as_object().at("mttc_uncensored_mean").is_null());
  EXPECT_FALSE(json.dump().empty());  // no NaN/Infinity leaks into the writer
}

TEST(BatchReport, JsonCarriesCellsAndAggregates) {
  const BatchReport report = BatchRunner(with_threads(2)).run(small_grid());
  const support::Json json = report.to_json();
  const auto& root = json.as_object();
  EXPECT_EQ(root.at("cells").as_integer(), 12);
  EXPECT_EQ(root.at("results").as_array().size(), 12u);
  // One aggregate per (solver, constraints) pair.
  EXPECT_EQ(root.at("aggregates").as_array().size(), 6u);
  const auto& first = root.at("aggregates").as_array()[0].as_object();
  EXPECT_TRUE(first.contains("mean_energy"));
  EXPECT_EQ(first.at("cells").as_integer(), 2);
  // The document serialises (no NaN/Infinity leaks into the writer).
  EXPECT_FALSE(json.dump().empty());
}

}  // namespace
}  // namespace icsdiv::runner
