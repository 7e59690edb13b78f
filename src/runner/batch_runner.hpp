// Parallel scenario batch engine.
//
// BatchRunner::run plans a grid's cells as a staged pipeline — workload →
// problem → solve → channels → attack, and solve → metric — and shards
// *stage tasks* across its own ThreadPool (not the global one: stages may
// themselves fan subproblems or Monte-Carlo runs out to the global pool,
// and keeping the two pools separate makes that nesting deadlock-free).
// Cells sharing a stage prefix (same workload, same problem, same solve)
// share one execution of it; per-stage hit/miss/evict counts land in
// `BatchReport::stage_stats`.  The engine lives in scenario_engine.cpp
// (DESIGN.md §9).
//
// Each cell derives a private deterministic RNG stream from its spec
// seed, so the report's deterministic columns are bit-identical whether
// the batch runs on one thread or many, and whether artifact reuse is on
// or off — the properties the determinism tests pin down.  Failures are
// captured per cell (the batch keeps going) and surfaced in the report's
// `error` column; cells sharing a failed stage share its message.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "runner/artifact_cache.hpp"
#include "runner/scenario.hpp"
#include "support/cancel.hpp"
#include "support/json.hpp"

namespace icsdiv::runner {

struct ScenarioResult {
  std::string name;
  // Axis echo, so a report row is self-describing.
  std::size_t hosts = 0;
  double degree = 0.0;
  std::size_t services = 0;
  std::size_t products_per_service = 0;
  std::string solver;
  std::string constraints;
  std::uint64_t seed = 0;
  // Instance shape.
  std::size_t links = 0;
  std::size_t variables = 0;
  // Solve outcome (deterministic given the spec).
  double energy = 0.0;
  double lower_bound = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  bool constraints_satisfied = false;
  // Diversity metrics of the decoded assignment (deterministic).
  double total_similarity = 0.0;
  double average_similarity = 0.0;
  double normalized_richness = 0.0;
  // Attack evaluation (deterministic; populated when the spec carried an
  // attack block).  MTTC aggregates over all entry hosts: `mttc_mean`
  // censors at the horizon, `mttc_uncensored_mean` averages the
  // target-reaching runs only (NaN when every run censored).
  bool attacked = false;
  std::string attack_strategy;
  double attack_detection = 0.0;
  /// Total Monte-Carlo runs (entries × runs-per-entry).
  std::size_t mttc_runs = 0;
  double mttc_mean = 0.0;
  double mttc_uncensored_mean = 0.0;
  std::size_t mttc_censored = 0;
  // BN diversity metrics (deterministic; populated when the spec carried a
  // metrics block).  Aggregated over every entry × target pair of the
  // cell: `d_bn_mean`/`d_bn_min` summarise Def. 6, `p_with_mean` /
  // `p_without_mean` the underlying compromise probabilities.
  bool metrics_evaluated = false;
  std::string metric_engine;
  std::size_t metric_pairs = 0;
  double d_bn_mean = 0.0;
  double d_bn_min = 0.0;
  double p_with_mean = 0.0;
  double p_without_mean = 0.0;
  // Wall-clock (machine-dependent; excluded from determinism checks).
  // Each column reports the duration of the stage executions that
  // *produced* this cell's artifacts: with artifact reuse on, cells
  // sharing a stage echo the same figure (the work ran once), so summing
  // a column across rows overstates the batch's actual cost — use
  // BatchReport::wall_seconds and stage_stats for that.
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  double attack_seconds = 0.0;
  double metric_seconds = 0.0;
  /// Non-empty when the cell threw; every other field but name/axes is
  /// then meaningless.
  std::string error;
};

struct BatchReport {
  std::vector<ScenarioResult> results;  ///< ordered by spec index
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  /// Per-stage cache counters (deterministic given specs + options).
  StageStats stage_stats;

  [[nodiscard]] std::size_t failed_count() const noexcept;

  /// Per-cell CSV; `include_timings` off gives the deterministic subset.
  /// Non-finite values (NaN/±inf) are written as empty cells, matching
  /// the JSON report's null convention (see DESIGN.md §9).
  void write_csv(std::ostream& out, bool include_timings = true) const;

  /// Full report: grid echo, per-cell rows, per-(solver, constraints)
  /// aggregates (mean energy / similarity / seconds over cells), and the
  /// `stage_stats` block.  `include_timings` off gives the deterministic
  /// subset — threads, wall-clock, stage stats, per-cell seconds and the
  /// aggregates' mean_solve_seconds are omitted, so the document is
  /// byte-identical across runs, thread counts, store temperature and
  /// process shardings (a sharded fleet's final `--report deterministic`
  /// pass over its shared store writes a single-process run's bytes).
  [[nodiscard]] support::Json to_json(bool include_timings = true) const;
};

/// The most cell workers a batch may request.  Each is an OS thread and a
/// grid may expand to a million cells, so BatchRunner::run rejects more
/// with InvalidArgument before planning.
inline constexpr std::size_t kMaxBatchThreads = 256;

struct BatchOptions {
  /// Worker threads for cells; 0 means hardware_concurrency.  Use 1 for
  /// timing sweeps (cells then get the machine to themselves and may use
  /// in-cell parallelism instead).  At most kMaxBatchThreads.
  std::size_t threads = 0;
  /// In-cell parallelism (the decomposed solve's fan-out) for every
  /// cell.  Unset: on when `threads` is 1 (a lone worker may as well fan
  /// out), off otherwise.
  std::optional<bool> inner_parallel;
  /// Share stage artifacts across cells with equal stage keys (the
  /// engine's point).  Off plans every cell's full pipeline from scratch —
  /// the uncached reference path, bit-identical to reuse by construction
  /// (the determinism test compares the two).
  bool reuse_artifacts = true;
  /// Directory of the persistent on-disk artifact store (DESIGN.md §13),
  /// the second cache tier under the in-memory one: stage tasks probe it
  /// before computing and publish after, so a re-run (or another process
  /// sharing the directory) skips whole stages.  Empty disables the tier.
  /// Corrupt/truncated/version-mismatched records fall back to recompute.
  std::string store_dir;
  /// Called after each cell completes, from the completing thread
  /// (serialise your own side effects); useful for progress dots.
  std::function<void(const ScenarioResult&)> on_result;
  /// Cooperative cancellation, checked at every stage-task boundary and
  /// threaded into the stage computations (solver iterations, MTTC runs,
  /// metric sample chunks).  Cells reached after expiry fail with a
  /// deadline/cancel error instead of computing; the DAG still drains.
  support::CancelToken cancel;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Plans the stage DAG for `specs`, executes it on
  /// `BatchOptions::threads` workers, and assembles the per-cell report
  /// (results in spec order, `stage_stats` filled).
  [[nodiscard]] BatchReport run(const std::vector<ScenarioSpec>& specs) const;
  [[nodiscard]] BatchReport run(const ScenarioGrid& grid) const { return run(grid.expand()); }

 private:
  BatchOptions options_;
};

}  // namespace icsdiv::runner
