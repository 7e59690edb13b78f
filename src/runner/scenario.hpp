// Scenario grids: the declarative description of a batch experiment.
//
// One ScenarioSpec names a single cell — {workload generator params ×
// solver × constraint recipe × seed × solve options}.  A ScenarioGrid is
// the cartesian product over per-axis value lists, the shape every sweep
// in the paper's §VIII evaluation takes (and the shape `icsdiv_cli batch`
// accepts as a JSON document).
//
// Constraint sets depend on the generated network's ids, so the grid names
// a *recipe* — a deterministic rule applied after generation:
//   "none"          no constraints (α̂)
//   "pinned"        every 4th host's first service fixed to its first
//                   candidate (legacy-host pins, the case study's C1 shape)
//   "forbidden-pair" global Def. 4 constraint: product 0 of service 0
//                   forbids product 0 of service 1 on the same host
//                   (undesirable-combination bans, the C2 shape)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "mrf/solver.hpp"
#include "runner/workload.hpp"
#include "support/json.hpp"

namespace icsdiv::runner {

/// Builds the constraint set `recipe` prescribes for `network`.  Throws
/// InvalidArgument for unknown recipe names.
[[nodiscard]] core::ConstraintSet apply_constraint_recipe(const std::string& recipe,
                                                          const core::Network& network);

/// Registered recipe names (for usage strings and validation).
[[nodiscard]] std::vector<std::string> constraint_recipe_names();

/// Attacker strategy names the attack block accepts (sim::AttackerStrategy
/// spellings; resolved by the batch runner when the cell executes).
[[nodiscard]] std::vector<std::string> attacker_strategy_names();

/// BN diversity-metric evaluation attached to a cell (§VI / Table V):
/// after the solve, Def. 6 (d_bn = P'/P) is evaluated for every
/// entry × target pair on the diversified assignment — one
/// bayes::CompiledReliability build per entry answers all of that entry's
/// targets in a single inference pass.  Host ids refer to the generated
/// workload (0 .. hosts-1); every target must be reachable from every
/// entry (d_bn is undefined otherwise and the cell fails).
struct MetricsSpec {
  std::vector<core::HostId> entries{0};
  std::vector<core::HostId> targets{0};
  /// "auto", "exact" or "montecarlo" (bayes::InferenceEngine).
  std::string engine = "auto";
  /// Monte-Carlo samples per inference pass.
  std::size_t samples = 400'000;
  /// Factoring budget for the exact engine.
  std::size_t exact_max_edges = 40;
  /// Per-entry inference streams derive deterministically from this.
  std::uint64_t seed = 99;
};

/// Worm-propagation evaluation attached to a cell (§VII-C2 / Table VI,
/// with the §IX defender knob): after the solve, MTTC is estimated from
/// every entry host towards `target` on the diversified assignment.  Host
/// ids refer to the generated workload (0 .. hosts-1).
struct AttackSpec {
  std::vector<core::HostId> entries{0};
  core::HostId target = 0;
  /// "sophisticated" or "uniform" (sim::AttackerStrategy).
  std::string strategy = "sophisticated";
  /// Per-tick per-host detection probability (the §IX defender).
  double detection = 0.0;
  /// Monte-Carlo runs per entry.
  std::size_t runs = 200;
  /// Censoring horizon per run.
  std::size_t max_ticks = 10'000;
  /// Per-entry MTTC streams derive deterministically from this.
  std::uint64_t seed = 2020;
};

struct ScenarioSpec {
  /// Report label; derive_name() fills it from the axes when empty.
  std::string name;
  WorkloadParams workload;  ///< workload.seed is overwritten from `seed`
  std::string solver = "trws";
  std::string constraints = "none";
  std::uint64_t seed = 2020;
  mrf::SolveOptions solve;
  /// Attack evaluation to run on the solved cell, when present.
  std::optional<AttackSpec> attack;
  /// d_bn evaluation to run on the solved cell, when present.
  std::optional<MetricsSpec> metrics;

  [[nodiscard]] std::string derive_name() const;
};

/// Attack axes of a grid: every solved cell is additionally evaluated for
/// each {strategy × detection} combination (entries stay within one cell —
/// the compiled simulator is shared across them).
struct AttackGrid {
  std::vector<core::HostId> entries{0};
  core::HostId target = 0;
  std::vector<std::string> strategies{"sophisticated"};
  std::vector<double> detections{0.0};
  std::size_t runs = 200;
  std::size_t max_ticks = 10'000;
  std::uint64_t seed = 2020;
};

/// Axis lists; expand() emits their cartesian product in a fixed order
/// (hosts → degree → services → products → solver → constraints → seed
/// [→ attack strategy → detection]).
struct ScenarioGrid {
  std::string name = "grid";
  std::vector<std::size_t> hosts{1000};
  std::vector<double> degrees{20.0};
  std::vector<std::size_t> services{15};
  std::vector<std::size_t> products_per_service{5};
  std::vector<std::string> solvers{"trws"};
  std::vector<std::string> constraints{"none"};
  std::vector<std::uint64_t> seeds{2020};
  double similar_pair_fraction = 0.5;
  double max_similarity = 0.6;
  mrf::SolveOptions solve;
  /// Attack axes; absent ⇒ solve-only cells (the historical grid shape).
  std::optional<AttackGrid> attack;
  /// d_bn evaluation applied to every cell; unlike `attack` it carries no
  /// grid-multiplying axes (entries/targets stay within one cell, sharing
  /// its compiled substrates).
  std::optional<MetricsSpec> metrics;
  /// Expansion guard: cell_count()/expand() reject grids past this cap
  /// with Infeasible instead of attempting the allocation (JSON key
  /// `max_cells` raises it for deliberately huge sweeps).
  std::size_t max_cells = kDefaultMaxCells;

  static constexpr std::size_t kDefaultMaxCells = 1'000'000;

  /// Checked cell count: the exact number of specs expand() would emit.
  /// Throws Infeasible when the axis product overflows std::size_t or
  /// exceeds `max_cells`.
  [[nodiscard]] std::size_t cell_count() const;

  /// Emits the cartesian product; guarded by cell_count().
  [[nodiscard]] std::vector<ScenarioSpec> expand() const;

  /// Parses the `icsdiv_cli batch --grid` document.  Every axis key is
  /// optional and may be a scalar or an array; unknown keys throw, as do
  /// out-of-domain values (negative max_iterations, non-finite tolerance,
  /// unknown strategies, detection outside [0,1], ...).
  static ScenarioGrid from_json(const support::Json& json);
};

/// The batch entry points' fail-fast expansion (api::Session's batch
/// request and `icsdiv_cli batch` both use it): rejects unregistered
/// solvers and unknown constraint recipes before any workload is built,
/// then expands and rejects a grid with zero cells.  Throws
/// InvalidArgument (Infeasible past `max_cells`, from expand()).
[[nodiscard]] std::vector<ScenarioSpec> expand_validated(const ScenarioGrid& grid);

}  // namespace icsdiv::runner
