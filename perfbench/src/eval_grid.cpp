// eval_grid: a 64-cell runner::BatchRunner grid whose cells share stage
// prefixes (4 workloads and 16 solves serve 64 cells), so worm MTTC and
// d_bn sampling carry most of the time.
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "bayes/compiled.hpp"
#include "bench.hpp"
#include "core/assignment.hpp"
#include "core/metrics.hpp"
#include "runner/batch_runner.hpp"
#include "runner/scenario.hpp"
#include "sim/compiled.hpp"

namespace perfbench {

namespace bayes = icsdiv::bayes;
namespace core = icsdiv::core;
namespace mrf = icsdiv::mrf;
namespace runner = icsdiv::runner;
namespace sim = icsdiv::sim;

namespace {

runner::BatchRunner make_runner(std::size_t workers) {
  runner::BatchOptions options;
  options.threads = workers;
  options.inner_parallel = false;  // the thread budget is the batch workers
  return runner::BatchRunner(options);
}

/// Checks one grid report: no failed cell, the per-stage accounting holds,
/// and the deterministic report equals `reference` (set on first use).
/// Returns the cells that completed and checked out.
std::size_t check_report(const runner::BatchReport& report, std::string& reference,
                         RawResult& result) {
  const std::size_t cells = report.results.size();
  result.attempted += cells;
  const std::size_t failed = report.failed_count();
  for (const runner::ScenarioResult& cell : report.results) {
    if (!cell.error.empty()) result.fail("eval_grid: cell " + cell.name + ": " + cell.error);
  }
  std::string why;
  const runner::StageStats& stats = report.stage_stats;
  for (const runner::StageCounters* stage : {&stats.workload, &stats.problem, &stats.solve,
                                             &stats.channels, &stats.attack, &stats.metric}) {
    if (stage->planned != stage->executed + stage->hits + stage->disk_hits) {
      why = "stage planned != executed + hits + disk_hits";
    }
  }
  const std::string deterministic = report.to_json(false).dump();
  if (reference.empty()) reference = deterministic;
  if (deterministic != reference) why = "deterministic report differs between repetitions";
  if (!why.empty()) {
    // A report that fails a check fails every cell it still counted as done.
    for (std::size_t i = failed; i < cells; ++i) result.fail("eval_grid: " + why);
    return 0;
  }
  return cells - failed;
}

struct Grid {
  runner::ScenarioGrid grid;
  std::string reference;
};

std::unique_ptr<Grid> make_grid(std::uint64_t seed) {
  auto grid = std::make_unique<Grid>();
  grid->grid = runner::ScenarioGrid::from_json(eval_grid_document(seed));
  return grid;
}

void timed(const Options& options, RawResult& result) {
  const runner::BatchRunner batch = make_runner(options.threads);
  std::unique_ptr<Grid> grid;
  for (std::size_t k = 0; k < kSetups; ++k) {
    grid.reset();
    const Clock::time_point start = k == 0 ? options.started : Clock::now();
    grid = make_grid(options.seed);
    (void)check_report(batch.run(grid->grid), grid->reference, result);  // warm-up
    result.setup_s.push_back(seconds_between(start, Clock::now()));
  }

  std::vector<double> op_s;
  const Clock::time_point start = Clock::now();
  while (op_s.size() < 3 || seconds_between(start, Clock::now()) < options.seconds) {
    const Clock::time_point op_start = Clock::now();
    const runner::BatchReport report = batch.run(grid->grid);
    const double seconds = seconds_between(op_start, Clock::now());
    // A grid with a failed cell or check counts as missing the latency.
    if (check_report(report, grid->reference, result) == report.results.size()) {
      op_s.push_back(seconds);
    }
    if (result.attempted > 100000) break;
  }
  result.samples.set("op_s", number_array(op_s));
  result.samples.set("cells_per_op", Json(grid->grid.cell_count()));
  result.peak_rss_mb = peak_rss_mb();
}

// ---------------------------------------------------------------------------
// Replay: the grid's unique stage executions, as calls into each layer.

/// Stage outcomes of the replay that the batch report also carries.
struct ReplayCell {
  double energy = 0.0;
  double mttc_mean = 0.0;
  double d_bn_mean = 0.0;
};

struct ReplayCounts {
  SolveWork solve;
  std::size_t sim_runs = 0;
  std::size_t sim_ticks = 0;
  std::size_t bayes_samples = 0;
};

struct SolveOut {
  std::shared_ptr<const core::DiversificationProblem> problem;  ///< the assignment's keepalive
  std::optional<core::Assignment> assignment;
  double energy = 0.0;
  std::shared_ptr<const sim::PropagationChannels> channels;
  double d_bn_mean = 0.0;
};

sim::SimulationParams attack_params(const runner::AttackSpec& attack) {
  sim::SimulationParams params;
  params.strategy = attack.strategy == "uniform" ? sim::AttackerStrategy::Uniform
                                                 : sim::AttackerStrategy::Sophisticated;
  params.detection_probability = attack.detection;
  params.max_ticks = attack.max_ticks;
  return params;
}

/// The runner's attack stage: MTTC per entry, averaged over the entries.
double replay_attack(Tracer& tracer, const SolveOut& solve, const runner::AttackSpec& attack,
                     ReplayCounts& counts) {
  std::optional<sim::CompiledPropagation> propagation;
  {
    const auto span = tracer.span("sim.mttc");
    propagation.emplace(solve.channels, attack_params(attack));
  }
  double mean_sum = 0.0;
  for (std::size_t e = 0; e < attack.entries.size(); ++e) {
    const auto span = tracer.span("sim.mttc");
    const sim::MttcResult mttc = propagation->mttc(attack.entries[e], attack.target, attack.runs,
                                                   attack.seed + 1000003ULL * e, false);
    mean_sum += mttc.mean;
    counts.sim_runs += attack.runs;
    counts.sim_ticks += static_cast<std::size_t>(mttc.mean * static_cast<double>(attack.runs) + 0.5);
  }
  return mean_sum / static_cast<double>(attack.entries.size());
}

/// The runner's metric stage: d_bn per entry × target, averaged.
double replay_metric(Tracer& tracer, const core::Assignment& assignment,
                     const runner::MetricsSpec& metrics, ReplayCounts& counts) {
  bayes::InferenceOptions inference;
  inference.engine = bayes::inference_engine_from_name(metrics.engine);
  inference.mc_samples = metrics.samples;
  inference.exact_max_edges = metrics.exact_max_edges;
  inference.parallel = false;
  double d_bn_sum = 0.0;
  for (std::size_t e = 0; e < metrics.entries.size(); ++e) {
    inference.seed = metrics.seed + 1000003ULL * e;
    std::optional<bayes::CompiledReliability> compiled;
    {
      const auto span = tracer.span("bayes.compile");
      compiled.emplace(assignment, metrics.entries[e], bayes::PropagationModel{});
    }
    bayes::ReliabilitySweep sweep;
    {
      const auto span = tracer.span("bayes.mc");
      sweep = compiled->solve_targets(metrics.targets, inference);
    }
    counts.bayes_samples += metrics.samples;
    for (const core::HostId target : metrics.targets) {
      d_bn_sum += sweep.p_baseline[target] / sweep.p[target];
    }
  }
  return d_bn_sum / static_cast<double>(metrics.entries.size() * metrics.targets.size());
}

/// Every unique stage of the grid, once, in grid order; the per-cell
/// outcomes come back for comparison with the batch report.  Like
/// BatchRunner, it releases each workload, problem and solve artifact after
/// its last consumer.
std::vector<ReplayCell> replay_grid(Tracer& tracer, const std::vector<runner::ScenarioSpec>& specs,
                                    ReplayCounts& counts) {
  using WorkloadKey = std::tuple<std::size_t, double, std::size_t, std::size_t, std::uint64_t>;
  using ProblemKey = std::tuple<WorkloadKey, std::string>;
  using SolveKey = std::tuple<ProblemKey, std::string>;
  const auto keys = [](const runner::ScenarioSpec& spec) {
    const WorkloadKey wkey{spec.workload.hosts, spec.workload.average_degree,
                           spec.workload.services, spec.workload.products_per_service, spec.seed};
    const ProblemKey pkey{wkey, spec.constraints};
    return std::make_tuple(wkey, pkey, SolveKey{pkey, spec.solver});
  };
  // Consumers left: problems per workload, solves per problem, cells per solve.
  std::map<WorkloadKey, std::size_t> workload_uses;
  std::map<ProblemKey, std::size_t> problem_uses;
  std::map<SolveKey, std::size_t> solve_uses;
  for (const runner::ScenarioSpec& spec : specs) {
    const auto [wkey, pkey, skey] = keys(spec);
    if (solve_uses[skey]++ == 0 && problem_uses[pkey]++ == 0) ++workload_uses[wkey];
  }
  std::map<WorkloadKey, std::shared_ptr<const runner::WorkloadInstance>> workloads;
  std::map<ProblemKey, std::shared_ptr<const core::DiversificationProblem>> problems;
  std::map<SolveKey, SolveOut> solves;

  std::vector<ReplayCell> cells;
  for (const runner::ScenarioSpec& spec : specs) {
    const auto [wkey, pkey, skey] = keys(spec);
    if (!solves.contains(skey)) {
      if (!problems.contains(pkey)) {
        if (!workloads.contains(wkey)) {
          runner::WorkloadParams params = spec.workload;
          params.seed = spec.seed;
          const auto span = tracer.span("runner.generate");
          workloads[wkey] =
              std::make_shared<const runner::WorkloadInstance>(runner::make_workload(params));
        }
        const std::shared_ptr<const runner::WorkloadInstance> workload = workloads[wkey];
        if (--workload_uses[wkey] == 0) workloads.erase(wkey);
        const auto span = tracer.span("core.problem");
        const std::shared_ptr<const core::Network> network(workload, workload->network.get());
        problems[pkey] = std::make_shared<const core::DiversificationProblem>(
            network, runner::apply_constraint_recipe(spec.constraints, *network));
      }
      SolveOut& solve = solves[skey];
      solve.problem = problems[pkey];
      if (--problem_uses[pkey] == 0) problems.erase(pkey);
      const core::DiversificationProblem& problem = *solve.problem;
      const mrf::SolveResult solved =
          replay_decomposed_solve(tracer, problem.mrf(), spec.solver, spec.solve, counts.solve);
      solve.energy = solved.energy;
      {
        const auto span = tracer.span("core.decode");
        solve.assignment.emplace(problem.decode(solved.labels));
      }
      {
        const auto span = tracer.span("core.similarity");
        (void)core::total_edge_similarity(*solve.assignment);
        (void)problem.constraints().satisfied_by(*solve.assignment);
        (void)solve.assignment->complete();
        (void)core::average_edge_similarity(*solve.assignment);
        (void)core::normalized_effective_richness(*solve.assignment);
      }
      if (spec.attack) {
        const auto span = tracer.span("sim.channels");
        solve.channels = std::make_shared<const sim::PropagationChannels>(
            *solve.assignment, sim::SimulationParams{}.model);
      }
      if (spec.metrics) {
        solve.d_bn_mean = replay_metric(tracer, *solve.assignment, *spec.metrics, counts);
      }
    }
    const SolveOut& solve = solves.at(skey);
    ReplayCell cell;
    cell.energy = solve.energy;
    cell.d_bn_mean = solve.d_bn_mean;
    if (spec.attack) cell.mttc_mean = replay_attack(tracer, solve, *spec.attack, counts);
    cells.push_back(cell);
    if (--solve_uses[skey] == 0) {
      const auto span = tracer.span("runner.release");
      solves.erase(skey);
    }
  }
  return cells;
}

void traced(const Options& options, RawResult& result) {
  Tracer tracer(options.replay);
  const runner::BatchRunner batch = make_runner(options.threads);
  const std::unique_ptr<Grid> grid = make_grid(options.seed);
  const runner::BatchReport reference = batch.run(grid->grid);  // warm-up
  (void)check_report(reference, grid->reference, result);

  JsonObject counts;
  for (const auto& [name, stage] :
       std::initializer_list<std::pair<const char*, const runner::StageCounters*>>{
           {"workload", &reference.stage_stats.workload},
           {"problem", &reference.stage_stats.problem},
           {"solve", &reference.stage_stats.solve},
           {"channels", &reference.stage_stats.channels},
           {"attack", &reference.stage_stats.attack},
           {"metric", &reference.stage_stats.metric}}) {
    counts.set(std::string("runner.stage.") + name + ".executed", Json(stage->executed));
    counts.set(std::string("runner.stage.") + name + ".hits", Json(stage->hits));
  }

  const std::vector<runner::ScenarioSpec> specs = grid->grid.expand();
  ReplayCounts work;
  const auto replay = [&] {
    result.attempted += specs.size();
    work = ReplayCounts{};
    tracer.begin_op("replay");
    const std::vector<ReplayCell> cells = replay_grid(tracer, specs, work);
    tracer.end_op();
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const runner::ScenarioResult& expected = reference.results[c];
      if (cells[c].energy != expected.energy || cells[c].mttc_mean != expected.mttc_mean ||
          cells[c].d_bn_mean != expected.d_bn_mean) {
        result.fail("eval_grid: replay differs from BatchRunner at cell " + expected.name);
      }
    }
  };
  // Each untraced grid runs next to its replay, so drift in machine speed
  // reaches both alike; which runs first alternates, so a drift within a
  // pair or an effect of running second cancels over the pairs.
  std::vector<double> e2e_s;
  for (std::size_t i = 0; i < options.reps; ++i) {
    const bool replay_first = options.replay && i % 2 == 1;
    if (replay_first) replay();
    const Clock::time_point start = Clock::now();
    const runner::BatchReport report = batch.run(grid->grid);
    e2e_s.push_back(seconds_between(start, Clock::now()));
    (void)check_report(report, grid->reference, result);
    if (options.replay && !replay_first) replay();
  }
  result.samples.set("e2e_s", number_array(e2e_s));
  if (options.replay) {
    counts.set("mrf.iterations", Json(work.solve.iterations));
    counts.set("mrf.edge_updates", Json(work.solve.edge_updates));
    counts.set("mrf.msg_bytes", Json(work.solve.msg_bytes));
    counts.set("sim.runs", Json(work.sim_runs));
    counts.set("sim.ticks", Json(work.sim_ticks));
    counts.set("bayes.samples", Json(work.bayes_samples));
    result.samples.set("trace", tracer.to_json());
  }
  result.samples.set("counts", Json(std::move(counts)));
  result.peak_rss_mb = peak_rss_mb();
}

}  // namespace

void run_eval_grid(const Options& options, RawResult& result) {
  if (options.mode == "timed") {
    timed(options, result);
  } else {
    traced(options, result);
  }
}

}  // namespace perfbench
